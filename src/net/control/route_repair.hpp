#pragma once
// The failure-reactive half of the control plane: incremental route repair
// over a degraded LinkPlan, with a stretch-bounded detour policy.
//
// PR 5 documented why this exists: with latency-shortest routes pinned on
// the *intact* plan, a cut MW trunk rations surviving trunks while parallel
// fiber idles — unserved traffic is non-monotone in failed links. The
// repairer closes that gap without paying a full route recompute per
// failure draw:
//
//   * The baseline is one shortest-path tree per distinct demand source
//     over the intact plan (the same trees compute_routes builds). A link's
//     state is its capacity factor (net/builder.hpp: in [0, 1], 0 = down):
//     a down link is MASKED from that one graph, a derated one keeps its
//     arcs at reduced capacity — the graph is never rebuilt, so node/edge
//     ids are stable across the whole factor sequence.
//   * Each `apply` takes the epoch's full factor vector and finds the
//     churn itself: only the trees the changed links can affect are
//     recomputed. A downed link matters to a tree iff one of its arcs is
//     a tree edge (parent_edge[to] == eid); a restored link matters iff it
//     could relax a label (dist[from] + w <= dist[to] — NON-strict,
//     because an equal-length arc can still become the final parent
//     through an intermediate relaxation).
//   * Pairs are re-evaluated iff their source tree was recomputed or their
//     current route is off its baseline path (off-baseline routes depend
//     on capacities/topology beyond the tree, so they stay dirty until
//     they return to baseline). Everything else is untouched — which is
//     what makes thousands of draws cheap.
//
// The route of a pair is a pure function of (plan, factors, policy):
// `apply` after any factor sequence yields byte-identical routes to
// `full_recompute` on the same factors, at every thread count. Tests pin
// both properties.
//
// Detour policy: a pair whose tree path left its baseline chooses among up
// to `candidates` masked Yen paths, keeps only those with stretch (path
// latency over geodesic latency at c) within `max_stretch`, and picks the
// one with the fattest degraded bottleneck — this is the capacity-aware
// step that sends displaced demand to idle fiber instead of re-saturating
// surviving MW trunks. If no candidate fits the bound the pair is DENIED
// (served zero; the availability metric counts it), which exposes the
// stretch/availability frontier as an experiment axis.
//
// Congestion rebalance: the per-pair detour step cannot see that a
// SURVIVING trunk became oversubscribed by everyone else's reroutes (load
// is a global property — the root of PR 5's non-monotonicity). So every
// repair ends with a deterministic serial pass over the full route set:
// pairs crossing an edge whose offered load exceeds its degraded capacity
// move to the min-latency path whose every edge has residual capacity for
// the pair's full rate, stretch bound still enforced; pairs with no such
// path stay put and are rationed by the allocator. The pass is a pure
// function of the post-repair routes, so incremental/oracle equivalence
// is preserved.
//
// The repairer is the control stack's one copy of the plan's state: its
// intact-plan view (current capacities), nominal capacities, demand list,
// factors and routes. CandidateRacer races on it, and TimelineDriver
// allocates on its view — in multipath-TE mode the repairer supplies the
// view, nominal capacities and demands the split solve reads, while its
// routes go unused.

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "engine/executor.hpp"
#include "graph/dijkstra.hpp"
#include "net/builder.hpp"
#include "net/flow/monitors.hpp"

namespace cisp::net::control {

/// Detour admission policy for pairs displaced from their baseline path.
struct DetourPolicy {
  /// A repaired route is admitted only while path latency / geodesic
  /// latency at c stays within this bound; otherwise the pair is denied.
  double max_stretch = std::numeric_limits<double>::infinity();
  /// Number of masked Yen candidates considered for a displaced pair
  /// (1 = just the tree path, no capacity-aware choice).
  std::size_t candidates = 3;
};

/// The repaired route of one demand pair.
struct PairRoute {
  /// Graph-edge-pinned path over the intact-plan view; empty when denied.
  graphs::Path path;
  double latency_s = 0.0;  ///< path propagation latency (0 when denied)
  double stretch = 0.0;    ///< latency over geodesic-at-c (0 when denied)
  bool detoured = false;   ///< route differs from the baseline path
  bool denied = false;     ///< no admissible route under the policy
};

/// What one `apply` touched (obs counters mirror these).
struct RepairStats {
  std::size_t changed_links = 0;    ///< links whose factor changed
  std::size_t sources = 0;          ///< distinct demand sources overall
  std::size_t touched_sources = 0;  ///< trees recomputed this apply
  std::size_t touched_pairs = 0;    ///< pairs re-evaluated this apply
  std::size_t changed_pairs = 0;    ///< pairs whose route actually changed
  std::size_t rebalanced_pairs = 0;  ///< pairs moved off congested edges
  std::size_t detoured_pairs = 0;   ///< current off-baseline (served) pairs
  std::size_t denied_pairs = 0;     ///< current denied pairs
};

class RouteRepairer {
 public:
  /// `plan` and `direct_km` must outlive the repairer. Every demand must be
  /// routable on the intact plan (same contract as compute_routes).
  /// `threads`: 1 = serial, 0 = all cores, N = N workers — routes are
  /// byte-identical for every value.
  RouteRepairer(const LinkPlan& plan, std::vector<TrafficDemand> demands,
                DetourPolicy policy, flow::DirectKmFn direct_km,
                std::size_t threads = 1);

  /// Moves every link to `factors` (one capacity factor per plan link,
  /// 0 = down) and repairs the routes the changed links affect. Returns
  /// what the change touched; re-applying the current factors is a calm
  /// no-op. Throws on a wrong size or a factor outside [0, 1], before
  /// anything changes.
  RepairStats apply(const std::vector<double>& factors);

  [[nodiscard]] const LinkPlan& plan() const { return *plan_; }
  [[nodiscard]] const std::vector<PairRoute>& routes() const {
    return routes_;
  }
  /// The current per-link capacity factors (the last `apply`'s vector;
  /// all 1 before any) — what TrafficRunOptions::capacity_factor and
  /// CandidateRacer::race read.
  [[nodiscard]] const std::vector<double>& capacity_factors() const {
    return factors_;
  }
  /// The routable view of the INTACT plan: downed links are masked, not
  /// removed, so pair paths index into this graph. Its capacities are the
  /// current ones (nominal x factor).
  [[nodiscard]] const SimTopologyView& view() const { return topo_.view; }
  /// The view's intact capacities, per view edge.
  [[nodiscard]] const std::vector<double>& nominal_capacity_bps() const {
    return nominal_bps_;
  }
  /// The demand list routes are planned for, in route order.
  [[nodiscard]] const std::vector<TrafficDemand>& demands() const {
    return demands_;
  }

  /// Runs fn(i) for every i in [0, n) on the repairer's workers (serially
  /// at threads 1). The repairer's own sharding; CandidateRacer::race
  /// borrows it.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

  /// Per-demand weight-1 route sets for TrafficRunOptions::route_set
  /// (empty set = denied).
  [[nodiscard]] MultipathRouteSet route_set() const;

  /// The equivalence oracle: routes on `factors`, computed from scratch
  /// (fresh Dijkstra per source, every pair evaluated). Tests pin
  /// `apply(factors).routes() == full_recompute(..., factors)` exactly.
  [[nodiscard]] static std::vector<PairRoute> full_recompute(
      const LinkPlan& plan, const std::vector<TrafficDemand>& demands,
      const DetourPolicy& policy, const flow::DirectKmFn& direct_km,
      const std::vector<double>& factors);

 private:
  void evaluate_pairs(const std::vector<std::size_t>& dirty);

  const LinkPlan* plan_;
  TopologyView topo_;
  std::vector<TrafficDemand> demands_;
  DetourPolicy policy_;
  flow::DirectKmFn direct_km_;
  std::unique_ptr<engine::Executor> executor_;

  std::vector<double> nominal_bps_;  ///< per view edge, intact capacities
  std::vector<double> factors_;      ///< per plan link, current
  std::vector<graphs::NodeId> sources_;      ///< distinct demand sources
  std::vector<std::size_t> source_slot_;     ///< per demand -> sources_ idx
  std::vector<graphs::ShortestPathTree> trees_;     ///< current, per source
  std::vector<graphs::Path> baseline_paths_;        ///< per demand, pinned
  std::vector<PairRoute> routes_;                   ///< per demand, current
  std::vector<char> on_baseline_;                   ///< per demand
};

}  // namespace cisp::net::control
