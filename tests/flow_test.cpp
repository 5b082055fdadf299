// Tests for the flow-level traffic backend: DemandMatrix aggregation and
// user apportionment, max-min fair allocation on hand-computed topologies
// (single bottleneck, parking lot, demand caps), bitwise agreement with
// the full-scan progressive-filling loop on random instances, and the
// packet-vs-flow fidelity contract on a small instance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
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

/// The textbook progressive-filling loop the allocator replaced: every
/// round scans all flows and all edges (rates raised one by one, demand
/// and saturation tests over the full index range). Kept serial as the
/// bitwise oracle for the water-level form.
flow::Allocation reference_max_min(const SimTopologyView& view,
                                   const std::vector<graphs::Path>& paths,
                                   const std::vector<double>& demand_bps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  std::vector<std::vector<graphs::EdgeId>> flow_edges(flows);
  std::vector<std::vector<std::uint32_t>> edge_flows(edges);
  for (std::size_t f = 0; f < flows; ++f) {
    flow_edges[f] = path_edges(view.latency_graph, paths[f]);
    for (const graphs::EdgeId eid : flow_edges[f]) {
      edge_flows[eid].push_back(static_cast<std::uint32_t>(f));
    }
  }

  flow::Allocation out;
  out.rate_bps.assign(flows, 0.0);
  out.edge_load_bps.assign(edges, 0.0);
  std::vector<char> active(flows, 1);
  std::vector<double> cap_rem = view.capacity_bps;
  std::vector<std::size_t> count(edges, 0);
  std::size_t active_flows = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    if (demand_bps[f] <= 0.0) {
      active[f] = 0;
      continue;
    }
    ++active_flows;
    for (const graphs::EdgeId eid : flow_edges[f]) ++count[eid];
  }
  const auto saturated = [&](std::size_t e) {
    return count[e] > 0 && cap_rem[e] <= view.capacity_bps[e] * 1e-9;
  };
  const auto demand_met = [&](std::size_t f) {
    return demand_bps[f] - out.rate_bps[f] <= demand_bps[f] * 1e-12;
  };

  std::vector<std::uint32_t> freeze;
  while (active_flows > 0) {
    ++out.rounds;
    double h_edge = kInf;
    for (std::size_t e = 0; e < edges; ++e) {
      const double share =
          count[e] > 0 ? cap_rem[e] / static_cast<double>(count[e]) : kInf;
      h_edge = std::min(h_edge, share);
    }
    double h_demand = kInf;
    for (std::size_t f = 0; f < flows; ++f) {
      h_demand = std::min(
          h_demand, active[f] ? demand_bps[f] - out.rate_bps[f] : kInf);
    }
    const double h = std::max(0.0, std::min(h_edge, h_demand));
    for (std::size_t f = 0; f < flows; ++f) {
      if (active[f]) out.rate_bps[f] += h;
    }
    for (std::size_t e = 0; e < edges; ++e) {
      if (count[e] > 0) cap_rem[e] -= h * static_cast<double>(count[e]);
    }
    freeze.clear();
    for (std::size_t e = 0; e < edges; ++e) {
      if (!saturated(e)) continue;
      ++out.bottleneck_edges;
      freeze.insert(freeze.end(), edge_flows[e].begin(), edge_flows[e].end());
    }
    for (std::size_t f = 0; f < flows; ++f) {
      if (active[f] && demand_met(f)) {
        freeze.push_back(static_cast<std::uint32_t>(f));
      }
    }
    if (freeze.empty()) throw std::logic_error("round froze no flow");
    for (const std::uint32_t f : freeze) {
      if (!active[f]) continue;
      active[f] = 0;
      --active_flows;
      for (const graphs::EdgeId eid : flow_edges[f]) --count[eid];
    }
  }
  for (std::size_t e = 0; e < edges; ++e) {
    double load = 0.0;
    for (const std::uint32_t f : edge_flows[e]) load += out.rate_bps[f];
    out.edge_load_bps[e] = load;
  }
  out.fill_rounds = out.rounds;
  return out;
}

void expect_bitwise_equal(const flow::Allocation& got,
                          const flow::Allocation& want,
                          const std::string& label) {
  ASSERT_EQ(got.rate_bps.size(), want.rate_bps.size()) << label;
  ASSERT_EQ(got.edge_load_bps.size(), want.edge_load_bps.size()) << label;
  EXPECT_EQ(std::memcmp(got.rate_bps.data(), want.rate_bps.data(),
                        want.rate_bps.size() * sizeof(double)),
            0)
      << "rates differ: " << label;
  EXPECT_EQ(std::memcmp(got.edge_load_bps.data(), want.edge_load_bps.data(),
                        want.edge_load_bps.size() * sizeof(double)),
            0)
      << "edge loads differ: " << label;
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.bottleneck_edges, want.bottleneck_edges) << label;
}

TEST(MaxMin, WaterLevelFillMatchesTheFullScanOracleBitForBit) {
  // 60 seeded instances over random meshes. Demands mix ties (drawn from
  // a four-value set with one near-tie), zeros and continuous draws. By
  // seed mod 4, an instance also zeroes some used edges' capacity, routes
  // every flow over one shared path, or pins flows' demands to exactly
  // their fair share (0: none of these).
  std::size_t tied = 0, zeros = 0, zero_caps = 0, shared = 0, pinned = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919);
    const std::size_t n = 4 + rng.uniform_index(17);
    SimTopologyView view;
    view.latency_graph = graphs::Graph(n);
    const auto add_duplex = [&](std::size_t a, std::size_t b, double cap) {
      for (const auto& [u, v] : {std::pair{a, b}, std::pair{b, a}}) {
        view.latency_graph.add_edge(static_cast<graphs::NodeId>(u),
                                    static_cast<graphs::NodeId>(v),
                                    rng.uniform(0.001, 0.005));
        view.edge_to_link.push_back(view.edge_to_link.size());
        view.capacity_bps.push_back(cap);
      }
    };
    for (std::size_t i = 0; i + 1 < n; ++i) {
      add_duplex(i, i + 1, rng.uniform(1e9, 5e9));
    }
    for (std::size_t chord = rng.uniform_index(n); chord > 0; --chord) {
      const std::size_t a = rng.uniform_index(n);
      const std::size_t b = rng.uniform_index(n);
      if (a != b) add_duplex(a, b, rng.uniform(1e9, 5e9));
    }
    // 5e8 and its near-twin differ by less than the 1e-12 demand-met
    // slack, so both freeze in the round the level reaches the first.
    const double tie_values[] = {2e8, 5e8, 5e8 * (1.0 + 5e-13), 1.25e9};
    std::vector<TrafficDemand> demands;
    const std::size_t wanted = 1 + rng.uniform_index(120);
    while (demands.size() < wanted) {
      const auto a = static_cast<std::uint32_t>(rng.uniform_index(n));
      const auto b = static_cast<std::uint32_t>(rng.uniform_index(n));
      if (a == b) continue;
      const double u = rng.uniform();
      const double rate = u < 0.15   ? 0.0
                          : u < 0.5  ? tie_values[rng.uniform_index(4)]
                                     : rng.uniform(1e7, 3e9);
      demands.push_back({a, b, rate});
    }
    RoutingResult routes =
        compute_routes(view, demands, RoutingScheme::ShortestPath);
    std::vector<double> rates;
    for (const auto& d : demands) rates.push_back(d.rate_bps);

    switch (seed % 4) {
      case 1:  // zero-capacity edges on used routes
        for (const auto& path : routes.paths) {
          if (rng.chance(0.2)) {
            const auto eids = path_edges(view.latency_graph, path);
            view.capacity_bps[eids[rng.uniform_index(eids.size())]] = 0.0;
            ++zero_caps;
          }
        }
        break;
      case 2: {  // every flow crosses every used edge
        std::size_t longest = 0;
        for (std::size_t f = 0; f < routes.paths.size(); ++f) {
          if (routes.paths[f].nodes.size() >
              routes.paths[longest].nodes.size()) {
            longest = f;
          }
        }
        const graphs::Path path = routes.paths[longest];
        for (auto& p : routes.paths) p = path;
        ++shared;
        break;
      }
      case 3: {  // demands pinned to exactly their max-min fair share
        const auto fair = reference_max_min(view, routes.paths, rates);
        for (std::size_t f = 0; f < rates.size(); ++f) {
          if (fair.rate_bps[f] < rates[f] && rng.chance(0.5)) {
            rates[f] = fair.rate_bps[f];
            ++pinned;
          }
        }
        break;
      }
      default:
        break;
    }
    for (std::size_t f = 0; f < rates.size(); ++f) {
      if (rates[f] == 0.0) ++zeros;
      for (std::size_t g = 0; g < f; ++g) {
        if (rates[g] == rates[f] && rates[f] > 0.0) {
          ++tied;
          break;
        }
      }
    }

    expect_bitwise_equal(flow::max_min_allocate(view, routes.paths, rates),
                         reference_max_min(view, routes.paths, rates),
                         "seed " + std::to_string(seed));
  }
  EXPECT_GT(tied, 0u);
  EXPECT_GT(zeros, 0u);
  EXPECT_GT(zero_caps, 0u);
  EXPECT_GT(shared, 0u);
  EXPECT_GT(pinned, 0u);
}

TEST(MaxMin, RejectsNonFiniteDemand) {
  const auto view = chain_view({10e9});
  const RoutingResult routes = compute_routes(
      view, {{0, 1, 1e9}, {0, 1, 1e9}}, RoutingScheme::ShortestPath);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)flow::max_min_allocate(view, routes.paths, {1e9, bad}),
                 Error);
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
