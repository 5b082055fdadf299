#pragma once
// Builds traffic-model substrates from a designed cISP topology (§5):
// nodes are the routing sites; built MW links carry their provisioned
// aggregate capacity (parallel tower series aggregated, per the paper's
// simulation methodology); fiber is modeled as a high-capacity mesh.
// Capacities and demands can be scaled down together — utilization, the
// quantity the experiments sweep, is preserved.
//
// The build is split in two layers so both traffic backends share one
// topology definition (the TrafficModel seam, net/traffic_model.hpp):
//   plan_links()      -> LinkPlan: backend-neutral duplex-link list
//   view_from_plan()  -> SimTopologyView: the routable graph (flow backend
//                        stops here — no Network, no per-packet state)
//   build_sim()       -> SimInstance: the packet simulator wired up

#include <memory>

#include "design/capacity.hpp"
#include "design/problem.hpp"
#include "net/monitors.hpp"
#include "net/routing.hpp"
#include "net/udp.hpp"

namespace cisp::net {

struct BuildOptions {
  /// Multiplied into every capacity AND every demand: keeps utilization
  /// identical while cutting the packet count (default 1/10th scale).
  double rate_scale = 0.1;
  double series_unit_gbps = 1.0;
  /// Fiber links are effectively uncapped (the paper treats fiber
  /// bandwidth as plentiful).
  double fiber_gbps = 400.0;
  std::size_t mw_queue_packets = 200;
  std::size_t fiber_queue_packets = 20000;
  /// Fiber mesh degree: each site gets fiber links to this many nearest
  /// (by fiber distance) other sites, plus enough to stay connected. Keeps
  /// the simulated graph sparse while preserving fiber path latencies
  /// within a few percent.
  std::size_t fiber_neighbors = 6;
};

/// One duplex link of the planned substrate, before any backend commits to
/// a representation (packet Network link vs flow-level capacitated edge).
struct PlannedLink {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double rate_bps = 0.0;
  double latency_s = 0.0;
  std::size_t queue_packets = 0;
  bool is_mw = false;
};

/// The backend-neutral substrate: every duplex link the topology carries.
struct LinkPlan {
  std::size_t node_count = 0;
  std::vector<PlannedLink> links;
};

/// Expands the designed topology + capacity plan into the duplex-link list
/// both backends build from (MW links with k^2 capacity, fiber
/// nearest-neighbor mesh plus a connectivity chain).
[[nodiscard]] LinkPlan plan_links(const design::DesignInput& input,
                                  const design::CapacityPlan& plan,
                                  const BuildOptions& options = {});

/// The routable view of a planned substrate. `edge_to_link` is filled with
/// the link ids a Network built from the same plan would assign (duplex
/// link i becomes network links 2i and 2i+1), so the view is identical
/// whether or not a Network exists. `mw_edges` lists the graph edges that
/// are MW links (for per-technology stats).
struct TopologyView {
  SimTopologyView view;
  std::vector<std::size_t> mw_edges;
};

[[nodiscard]] TopologyView view_from_plan(const LinkPlan& plan);

/// A link's state is one number: its capacity factor in [0, 1], the
/// fraction of nominal capacity it carries (weather derate), with 0
/// meaning down (masked from routing). Throws unless `factors` holds one
/// such factor per link of a plan with `link_count` links.
void check_capacity_factors(const std::vector<double>& factors,
                            std::size_t link_count);

/// Writes nominal x factor into `view.capacity_bps`: edge e of a
/// view_from_plan view gets `nominal_bps[e] * factors[link of e]`. The one
/// place a factor vector scales capacity (latency is untouched — a derate
/// changes rate, not distance). `nominal_bps` holds one capacity per edge
/// and may be `view.capacity_bps` itself (scaled in place); `factors` is
/// checked as check_capacity_factors does.
void apply_capacity_factors(SimTopologyView& view,
                            const std::vector<double>& nominal_bps,
                            const std::vector<double>& factors);

/// A runnable packet simulation instance (owns simulator + network wiring).
struct SimInstance {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Network> network;
  SimTopologyView view;
  FlowMonitor monitor;
  /// Graph-edge indices that are MW links (for per-technology stats).
  std::vector<std::size_t> mw_edges;
};

/// Builds nodes/links from the designed topology + capacity plan.
[[nodiscard]] SimInstance build_sim(const design::DesignInput& input,
                                    const design::CapacityPlan& plan,
                                    const BuildOptions& options = {});

/// Wires the packet simulator directly from an explicit LinkPlan — the
/// entry point for scenarios that mutate the plan (failure models cutting
/// links) before any backend commits to a representation.
[[nodiscard]] SimInstance build_sim_from_plan(const LinkPlan& plan);

/// One demand that will actually emit packets, with the phase seed it drew
/// from the workload RNG. Seeds are drawn once, globally, in demand order —
/// a sharded run hands each shard its subset and every flow keeps the exact
/// phase it would have had in a single-simulator run.
struct SeededDemand {
  std::size_t index = 0;  ///< position in the demand list (== flow id)
  std::uint64_t seed = 0;
};

/// Draws per-demand phase seeds in demand order, skipping demands too small
/// to emit a packet in [start, stop] (skipped demands draw nothing, exactly
/// as the attach loop always behaved).
[[nodiscard]] std::vector<SeededDemand> seed_udp_demands(
    const std::vector<TrafficDemand>& demands, Time start, Time stop,
    std::uint64_t seed);

/// Installs sinks on all nodes and attaches UDP CBR sources for the given
/// pre-seeded subset of `demands`; the flows run from `start` to `stop`.
/// Returns the sources (kept alive by the caller for the run's duration).
[[nodiscard]] std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_sources(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    const std::vector<SeededDemand>& seeded, Time start, Time stop);

/// Single-simulator convenience: seed_udp_demands + attach_udp_sources.
[[nodiscard]] std::vector<std::unique_ptr<UdpCbrSource>> attach_udp_workload(
    SimInstance& instance, const std::vector<TrafficDemand>& demands,
    Time start, Time stop, std::uint64_t seed);

}  // namespace cisp::net
