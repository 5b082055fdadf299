// Tests for the flow-level traffic backend: DemandMatrix aggregation and
// user apportionment, max-min fair allocation on hand-computed topologies
// (single bottleneck, parking lot, demand caps), thread-count invariance
// of the allocator (byte-identical rates), and the packet-vs-flow
// fidelity contract on a small instance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "net/builder.hpp"
#include "net/flow/demand_matrix.hpp"
#include "net/flow/max_min.hpp"
#include "net/flow/monitors.hpp"
#include "net/routing.hpp"
#include "net/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net {
namespace {

// ---------------------------------------------------------------------------
// Hand-built substrates
// ---------------------------------------------------------------------------

/// A directed chain 0 - 1 - ... - n-1 of duplex links with per-link
/// capacities (both directions alike) and 1 ms propagation per hop.
SimTopologyView chain_view(const std::vector<double>& caps_bps) {
  SimTopologyView view;
  view.latency_graph = graphs::Graph(caps_bps.size() + 1);
  for (std::size_t i = 0; i < caps_bps.size(); ++i) {
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(i),
                                static_cast<graphs::NodeId>(i + 1), 0.001);
    view.edge_to_link.push_back(2 * i);
    view.capacity_bps.push_back(caps_bps[i]);
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(i + 1),
                                static_cast<graphs::NodeId>(i), 0.001);
    view.edge_to_link.push_back(2 * i + 1);
    view.capacity_bps.push_back(caps_bps[i]);
  }
  return view;
}

flow::Allocation allocate(const SimTopologyView& view,
                          const std::vector<TrafficDemand>& demands,
                          const flow::AllocatorOptions& options = {}) {
  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);
  return flow::max_min_allocate(view, routes.paths, rates, options);
}

// ---------------------------------------------------------------------------
// DemandMatrix
// ---------------------------------------------------------------------------

TEST(DemandMatrix, FromTrafficMatchesHistoricalExpansion) {
  const std::vector<std::vector<double>> traffic = {
      {0, 2, 1}, {2, 0, 1}, {1, 1, 0}};
  const auto matrix = flow::DemandMatrix::from_traffic(traffic, 10.0, 0.1);
  const auto demands = matrix.to_demands();
  ASSERT_EQ(matrix.flow_count(), demands.size());
  double sum = 0.0;
  for (std::size_t f = 0; f < matrix.flow_count(); ++f) {
    EXPECT_EQ(matrix.pairs()[f].src, demands[f].src);
    EXPECT_EQ(matrix.pairs()[f].dst, demands[f].dst);
    EXPECT_DOUBLE_EQ(matrix.pairs()[f].rate_bps, demands[f].rate_bps);
    sum += matrix.pairs()[f].rate_bps;
  }
  EXPECT_NEAR(sum, 10.0 * 1e9 * 0.1, 1.0);
  EXPECT_NEAR(matrix.total_rate_bps(), sum, 1.0);
}

TEST(DemandMatrix, ApportionsUsersExactlyAndDeterministically) {
  const std::vector<std::vector<double>> traffic = {
      {0.0, 0.31, 0.07}, {0.17, 0.0, 0.23}, {0.05, 0.11, 0.0}};
  const std::uint64_t users = 1000003;  // prime: exercises the remainders
  const auto a = flow::DemandMatrix::from_users(traffic, users, 1e5);
  const auto b = flow::DemandMatrix::from_users(traffic, users, 1e5);
  EXPECT_EQ(a.total_users(), users);
  EXPECT_EQ(a.flow_count(), 6u);
  std::uint64_t sum = 0;
  for (std::size_t f = 0; f < a.flow_count(); ++f) {
    // Deterministic: two invocations agree pair by pair.
    EXPECT_EQ(a.pairs()[f].users, b.pairs()[f].users);
    // Rate is exactly users * per-user.
    EXPECT_DOUBLE_EQ(a.pairs()[f].rate_bps,
                     static_cast<double>(a.pairs()[f].users) * 1e5);
    sum += a.pairs()[f].users;
  }
  EXPECT_EQ(sum, users);
  // Proportionality: the largest matrix entry gets the most users.
  std::uint64_t max_users = 0;
  std::size_t argmax = 0;
  for (std::size_t f = 0; f < a.flow_count(); ++f) {
    if (a.pairs()[f].users > max_users) {
      max_users = a.pairs()[f].users;
      argmax = f;
    }
  }
  EXPECT_EQ(a.pairs()[argmax].src, 0u);
  EXPECT_EQ(a.pairs()[argmax].dst, 1u);
}

TEST(DemandMatrix, MillionUsersStayAggregated) {
  // The whole point of the fluid backend: 2 * 10^6 endpoints collapse to
  // O(pairs) state.
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto matrix =
      flow::DemandMatrix::from_users(traffic, 2000000, 100e3);
  EXPECT_EQ(matrix.flow_count(), 12u);
  EXPECT_EQ(matrix.total_users(), 2000000u);
}

// ---------------------------------------------------------------------------
// Max-min fair allocation
// ---------------------------------------------------------------------------

TEST(MaxMin, SingleBottleneckSharesEqually) {
  // Three flows across one 9 Gbps link, all demanding more: 3 Gbps each.
  const auto view = chain_view({9e9});
  std::vector<TrafficDemand> demands(3, {0, 1, 10e9});
  const auto allocation = allocate(view, demands);
  for (const double rate : allocation.rate_bps) {
    EXPECT_NEAR(rate, 3e9, 1.0);
  }
  EXPECT_EQ(allocation.rounds, 1u);
  EXPECT_EQ(allocation.bottleneck_edges, 1u);
  EXPECT_NEAR(allocation.edge_load_bps[0], 9e9, 1.0);
}

TEST(MaxMin, ParkingLotHandComputed) {
  // Chain 0-1-2-3, all links 10 Gbps. Flows: long 0->3, plus one per hop.
  // The short 0->1 flow demands only 2 Gbps. Water-filling by hand:
  //   round 1: h = 2 (the capped flow freezes; every active flow is at 2)
  //   round 2: links 1-2 and 2-3 have 6 Gbps left over 2 flows -> h = 3;
  //            they saturate, freezing the long and both hop flows at 5.
  //   => long = 5, f(0->1) = 2, f(1->2) = 5, f(2->3) = 5.
  const auto view = chain_view({10e9, 10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 10e9}, {0, 1, 2e9}, {1, 2, 10e9}, {2, 3, 10e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 5e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 5e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[3], 5e9, 1.0);
  // First link carries long + capped short: 7 of 10 Gbps.
  EXPECT_NEAR(allocation.edge_load_bps[0], 7e9, 1.0);
}

TEST(MaxMin, TightFirstLinkPropagatesHeadroom) {
  // Caps {4, 10, 10} Gbps: the first link bottlenecks the long flow and
  // its local flow at 2, later flows pick up the slack to 8.
  const auto view = chain_view({4e9, 10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 3, 10e9}, {0, 1, 10e9}, {1, 2, 10e9}, {2, 3, 10e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 8e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[3], 8e9, 1.0);
}

TEST(MaxMin, UncongestedFlowsGetTheirDemand) {
  const auto view = chain_view({10e9, 10e9});
  const std::vector<TrafficDemand> demands = {
      {0, 2, 1e9}, {0, 1, 2e9}, {1, 2, 3e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_NEAR(allocation.rate_bps[0], 1e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[1], 2e9, 1.0);
  EXPECT_NEAR(allocation.rate_bps[2], 3e9, 1.0);
  EXPECT_EQ(allocation.bottleneck_edges, 0u);
}

TEST(MaxMin, ZeroDemandFlowsStayAtZero) {
  const auto view = chain_view({10e9});
  const std::vector<TrafficDemand> demands = {{0, 1, 0.0}, {0, 1, 5e9}};
  const auto allocation = allocate(view, demands);
  EXPECT_DOUBLE_EQ(allocation.rate_bps[0], 0.0);
  EXPECT_NEAR(allocation.rate_bps[1], 5e9, 1.0);
}

TEST(MaxMin, AllocationsAreByteIdenticalAcrossThreadCounts) {
  // A larger random instance; the pool is forced on via parallel_cutoff=1
  // so chunked reductions actually run sharded at threads > 1.
  const std::size_t n = 24;
  SimTopologyView view;
  view.latency_graph = graphs::Graph(n);
  Rng rng(404);
  const auto add_duplex = [&](std::size_t a, std::size_t b, double cap) {
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(a),
                                static_cast<graphs::NodeId>(b),
                                rng.uniform(0.001, 0.005));
    view.edge_to_link.push_back(view.edge_to_link.size());
    view.capacity_bps.push_back(cap);
    view.latency_graph.add_edge(static_cast<graphs::NodeId>(b),
                                static_cast<graphs::NodeId>(a),
                                rng.uniform(0.001, 0.005));
    view.edge_to_link.push_back(view.edge_to_link.size());
    view.capacity_bps.push_back(cap);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    add_duplex(i, i + 1, rng.uniform(1e9, 5e9));
  }
  for (int chord = 0; chord < 20; ++chord) {
    const std::size_t a = rng.uniform_index(n);
    const std::size_t b = rng.uniform_index(n);
    if (a != b) add_duplex(a, b, rng.uniform(1e9, 5e9));
  }
  std::vector<TrafficDemand> demands;
  for (int f = 0; f < 600; ++f) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (a == b) continue;
    demands.push_back({a, b, rng.uniform(1e7, 5e8)});
  }

  const RoutingResult routes =
      compute_routes(view, demands, RoutingScheme::ShortestPath);
  std::vector<double> rates;
  for (const auto& d : demands) rates.push_back(d.rate_bps);

  flow::AllocatorOptions serial;
  serial.threads = 1;
  const auto baseline = flow::max_min_allocate(view, routes.paths, rates,
                                               serial);
  EXPECT_GT(baseline.rounds, 1u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    flow::AllocatorOptions options;
    options.threads = threads;
    options.parallel_cutoff = 1;
    const auto parallel =
        flow::max_min_allocate(view, routes.paths, rates, options);
    ASSERT_EQ(parallel.rate_bps.size(), baseline.rate_bps.size());
    EXPECT_EQ(std::memcmp(parallel.rate_bps.data(), baseline.rate_bps.data(),
                          baseline.rate_bps.size() * sizeof(double)),
              0)
        << "rates differ at threads=" << threads;
    EXPECT_EQ(std::memcmp(parallel.edge_load_bps.data(),
                          baseline.edge_load_bps.data(),
                          baseline.edge_load_bps.size() * sizeof(double)),
              0)
        << "edge loads differ at threads=" << threads;
    EXPECT_EQ(parallel.rounds, baseline.rounds);
  }
}

// ---------------------------------------------------------------------------
// TrafficModel seam: fidelity contract
// ---------------------------------------------------------------------------

/// Small 4-node design input (square with one MW diagonal), mirroring the
/// net_test fixture.
design::DesignInput square_input() {
  const double side = 500.0;
  const double diag = side * std::sqrt(2.0);
  std::vector<std::vector<double>> geod = {
      {0, side, diag, side},
      {side, 0, side, diag},
      {diag, side, 0, side},
      {side, diag, side, 0}};
  auto fiber = geod;
  for (auto& row : fiber) {
    for (double& v : row) v *= 1.9;
  }
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  std::vector<design::CandidateLink> cands = {{0, 2, diag * 1.05, 10.0}};
  return design::DesignInput(geod, fiber, traffic, cands, 10.0);
}

design::CapacityPlan square_plan() {
  design::CapacityPlan plan;
  plan.aggregate_gbps = 5.0;
  design::LinkProvision prov;
  prov.candidate_index = 0;
  prov.site_a = 0;
  prov.site_b = 2;
  prov.series = 3;
  plan.links.push_back(prov);
  return plan;
}

TEST(TrafficModel, ParsesAndPrintsBackends) {
  EXPECT_EQ(parse_traffic_backend("packet"), TrafficBackend::Packet);
  EXPECT_EQ(parse_traffic_backend("flow"), TrafficBackend::Flow);
  EXPECT_STREQ(to_string(TrafficBackend::Packet), "packet");
  EXPECT_STREQ(to_string(TrafficBackend::Flow), "flow");
  EXPECT_THROW((void)parse_traffic_backend("fluid"), cisp::Error);
}

TEST(TrafficModel, FlowMatchesPacketOnSmallInstance) {
  // The documented fidelity contract: below saturation the fluid backend's
  // analytic delay/stretch track the packet simulator within 5% + 0.5 ms
  // (the residual is queueing + serialization, absent from the fluid
  // model).
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 5.0, 0.1);

  TrafficRunOptions options;
  options.sim_duration_s = 0.2;
  options.seed = 99;

  const auto packet_report =
      make_traffic_model(TrafficBackend::Packet, input, plan)
          ->run(demands, options);
  const auto flow_report =
      make_traffic_model(TrafficBackend::Flow, input, plan)
          ->run(demands, options);

  // Uncongested on both backends.
  EXPECT_LT(packet_report.stats.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(flow_report.stats.loss_rate, 0.0);
  EXPECT_NEAR(flow_report.stats.delivered_bps, flow_report.stats.offered_bps,
              1.0);

  const double tolerance =
      0.05 * packet_report.stats.mean_delay_s + 0.0005;
  EXPECT_NEAR(flow_report.stats.mean_delay_s, packet_report.stats.mean_delay_s,
              tolerance);
  EXPECT_NEAR(flow_report.stats.mean_stretch, packet_report.stats.mean_stretch,
              0.05 * packet_report.stats.mean_stretch);

  // Same pairs, same routes: per-pair stretch within the same contract.
  ASSERT_EQ(flow_report.pairs.size(), packet_report.pairs.size());
  for (std::size_t f = 0; f < flow_report.pairs.size(); ++f) {
    EXPECT_EQ(flow_report.pairs[f].src, packet_report.pairs[f].src);
    EXPECT_EQ(flow_report.pairs[f].dst, packet_report.pairs[f].dst);
    EXPECT_NEAR(flow_report.pairs[f].stretch, packet_report.pairs[f].stretch,
                0.05 * packet_report.pairs[f].stretch + 0.05);
  }
}

TEST(TrafficModel, FlowBackendCarriesMillionsOfUsers) {
  // 10^6 endpoints on the square: the flow backend never materializes
  // per-user or per-packet state, so this runs in test time comfortably.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  const auto demands =
      flow::DemandMatrix::from_users(traffic, 1000000, 3000.0);

  TrafficRunOptions options;
  const auto report = make_traffic_model(TrafficBackend::Flow, input, plan)
                          ->run(demands, options);
  EXPECT_EQ(report.stats.users, 1000000u);
  EXPECT_EQ(report.stats.flows, 12u);
  EXPECT_GE(report.stats.mean_stretch, 1.0);
  EXPECT_GT(report.stats.delivered_bps, 0.0);
  EXPECT_EQ(report.pairs.size(), 12u);
}

TEST(TrafficModel, PacketBackendDoesNotCountUnsimulatedPairsAsLoss) {
  // Demands below the one-packet emission threshold never get a UDP
  // source; they must read as delivered (the monitor's loss_rate excludes
  // them too), not as congestion loss.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  // ~0.8 kbps per pair over a 50 ms window: well under one 500-byte packet.
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 0.0001, 0.1);

  TrafficRunOptions options;
  options.sim_duration_s = 0.05;
  const auto report = make_traffic_model(TrafficBackend::Packet, input, plan)
                          ->run(demands, options);
  EXPECT_NEAR(report.stats.delivered_bps, report.stats.offered_bps, 1.0);
  for (const auto& pair : report.pairs) {
    EXPECT_DOUBLE_EQ(pair.delivered_bps, pair.offered_bps);
    EXPECT_GT(pair.latency_s, 0.0);  // propagation fallback
  }
}

TEST(TrafficModel, FlowReportsUnservedDemandAsLoss) {
  // Offered load far above the single MW diagonal + fiber capacities:
  // the allocator must cap delivery and report the shortfall.
  const auto input = square_input();
  const auto plan = square_plan();
  std::vector<std::vector<double>> traffic(4, std::vector<double>(4, 1.0));
  for (int i = 0; i < 4; ++i) traffic[i][i] = 0.0;
  // 10 Tbps offered against ~tens-of-Gbps of capacity.
  const auto demands = flow::DemandMatrix::from_traffic(traffic, 10000.0, 1.0);

  TrafficRunOptions options;
  const auto report = make_traffic_model(TrafficBackend::Flow, input, plan)
                          ->run(demands, options);
  EXPECT_GT(report.stats.loss_rate, 0.5);
  EXPECT_NEAR(report.stats.max_link_utilization, 1.0, 1e-6);
}

}  // namespace
}  // namespace cisp::net
