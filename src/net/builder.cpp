#include "net/builder.hpp"

#include <algorithm>

#include "geo/latlon.hpp"
#include "util/error.hpp"

namespace cisp::net {

LinkPlan plan_links(const design::DesignInput& input,
                    const design::CapacityPlan& plan,
                    const BuildOptions& options) {
  CISP_REQUIRE(options.rate_scale > 0.0, "rate scale must be positive");
  const std::size_t n = input.site_count();

  LinkPlan out;
  out.node_count = n;

  // MW links: aggregated capacity = series^2 * unit (the k^2 rule).
  for (const auto& link : plan.links) {
    const double capacity_bps = static_cast<double>(link.series) *
                                static_cast<double>(link.series) *
                                options.series_unit_gbps * 1e9 *
                                options.rate_scale;
    const double latency_s =
        input.candidates()[link.candidate_index].mw_km /
        geo::kSpeedOfLightKmPerS;
    out.links.push_back({static_cast<std::uint32_t>(link.site_a),
                         static_cast<std::uint32_t>(link.site_b), capacity_bps,
                         latency_s, options.mw_queue_packets, true});
  }

  // Fiber mesh: nearest neighbors by fiber distance (plus a chain along
  // the nearest-neighbor order to guarantee connectivity).
  std::vector<std::vector<bool>> fiber_added(n, std::vector<bool>(n, false));
  const double fiber_bps = options.fiber_gbps * 1e9 * options.rate_scale;
  const auto add_fiber = [&](std::size_t a, std::size_t b) {
    if (a == b || fiber_added[a][b]) return;
    fiber_added[a][b] = fiber_added[b][a] = true;
    const double latency_s =
        input.fiber_effective_km(a, b) / geo::kSpeedOfLightKmPerS;
    out.links.push_back({static_cast<std::uint32_t>(a),
                         static_cast<std::uint32_t>(b), fiber_bps, latency_s,
                         options.fiber_queue_packets, false});
  };
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::size_t> order;
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a) order.push_back(b);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return input.fiber_effective_km(a, x) < input.fiber_effective_km(a, y);
    });
    const std::size_t neighbors =
        std::min(options.fiber_neighbors, order.size());
    for (std::size_t k = 0; k < neighbors; ++k) add_fiber(a, order[k]);
  }
  // Connectivity backstop: chain sites in index order.
  for (std::size_t a = 0; a + 1 < n; ++a) add_fiber(a, a + 1);

  return out;
}

TopologyView view_from_plan(const LinkPlan& plan) {
  TopologyView out;
  out.view.latency_graph = graphs::Graph(plan.node_count);
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const PlannedLink& link = plan.links[i];
    const std::size_t before = out.view.latency_graph.edge_count();
    out.view.latency_graph.add_edge(link.a, link.b, link.latency_s);
    out.view.edge_to_link.push_back(2 * i);
    out.view.capacity_bps.push_back(link.rate_bps);
    out.view.latency_graph.add_edge(link.b, link.a, link.latency_s);
    out.view.edge_to_link.push_back(2 * i + 1);
    out.view.capacity_bps.push_back(link.rate_bps);
    if (link.is_mw) {
      out.mw_edges.push_back(before);
      out.mw_edges.push_back(before + 1);
    }
  }
  return out;
}

void check_capacity_factors(const std::vector<double>& factors,
                            std::size_t link_count) {
  CISP_REQUIRE(factors.size() == link_count,
               "capacity factors must cover every plan link");
  for (const double factor : factors) {
    CISP_REQUIRE(factor >= 0.0 && factor <= 1.0,
                 "capacity factor must be in [0, 1]");
  }
}

void apply_capacity_factors(SimTopologyView& view,
                            const std::vector<double>& nominal_bps,
                            const std::vector<double>& factors) {
  CISP_REQUIRE(nominal_bps.size() == view.capacity_bps.size(),
               "nominal capacities must cover every view edge");
  check_capacity_factors(factors, view.capacity_bps.size() / 2);
  for (std::size_t e = 0; e < view.capacity_bps.size(); ++e) {
    view.capacity_bps[e] = nominal_bps[e] * factors[view.edge_to_link[e] / 2];
  }
}

SimInstance build_sim(const design::DesignInput& input,
                      const design::CapacityPlan& plan,
                      const BuildOptions& options) {
  return build_sim_from_plan(plan_links(input, plan, options));
}

SimInstance build_sim_from_plan(const LinkPlan& links) {
  SimInstance instance;
  instance.sim = std::make_unique<Simulator>();
  instance.network = std::make_unique<Network>(*instance.sim,
                                              links.node_count);
  for (const PlannedLink& link : links.links) {
    instance.network->add_duplex_link(link.a, link.b, link.rate_bps,
                                      link.latency_s, link.queue_packets);
  }
  TopologyView topo = view_from_plan(links);
  instance.view = std::move(topo.view);
  instance.mw_edges = std::move(topo.mw_edges);
  return instance;
}

std::vector<SeededDemand> seed_udp_demands(
    const std::vector<TrafficDemand>& demands, Time start, Time stop,
    std::uint64_t seed) {
  std::vector<SeededDemand> seeded;
  Rng rng(seed);
  for (std::size_t d = 0; d < demands.size(); ++d) {
    // Skip demands so small they would not emit a packet in the window.
    const double window_bytes =
        demands[d].rate_bps / 8.0 * std::max(0.0, stop - start);
    if (window_bytes < kUdpPacketBytes) continue;
    seeded.push_back({d, rng()});
  }
  return seeded;
}

std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_sources(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    const std::vector<SeededDemand>& seeded, Time start, Time stop) {
  for (std::size_t node = 0; node < instance.network->node_count(); ++node) {
    install_udp_sink(*instance.network, static_cast<std::uint32_t>(node),
                     instance.monitor);
  }
  std::vector<std::unique_ptr<UdpCbrSource>> sources;
  sources.reserve(seeded.size());
  for (const SeededDemand& sd : seeded) {
    const TrafficDemand& demand = demands[sd.index];
    sources.push_back(std::make_unique<UdpCbrSource>(
        *instance.network, instance.monitor,
        static_cast<std::uint32_t>(sd.index), demand.src, demand.dst,
        demand.rate_bps));
    sources.back()->start(start, stop, sd.seed);
  }
  return sources;
}

std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_workload(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    Time start, Time stop, std::uint64_t seed) {
  return attach_udp_sources(instance, demands,
                            seed_udp_demands(demands, start, stop, seed),
                            start, stop);
}

}  // namespace cisp::net
