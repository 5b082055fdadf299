#pragma once
// Route sets through the fluid allocators. Every fluid evaluation — scheme
// routing, repaired detours, raced fallbacks and TE splits alike — hands a
// MultipathRouteSet to realize_routes(): a pinned path is a weight-1 set and
// a denied pair is an empty one. The allocators (max_min, alpha_fair) are
// path-per-flow machines, so route sets are realized by EXPANSION: each
// (pair, weighted path) becomes one subflow whose offered rate is the
// pair's rate times the path's weight, the unchanged allocators run over
// the subflows (per-slot-write discipline untouched, so allocations stay
// byte-identical at every thread count), and the result folds back to
// pair grain.
//
// Fairness semantics note (documented, deliberate): max-min over subflows
// is not max-min over pairs — a pair split two ways owns two claims at
// the water level. The elastic backend compensates exactly: subflow
// utility weights are users * split_weight, so a pair's total weight is
// its user count regardless of how it splits. Denied pairs (empty route
// set entries) expand to no subflows and deliver zero.
//
// Zero-rate pairs keep their subflows (at zero demand) — pair and
// subflow indices stay stable across in-place demand rewrites, which is
// what lets a streaming timeline reuse warm allocator incidence across
// epochs.

#include <cstdint>
#include <vector>

#include "net/flow/demand_matrix.hpp"
#include "net/flow/max_min.hpp"
#include "net/flow/monitors.hpp"

namespace cisp::net::flow {

/// One pair's route set expanded into allocator-grain subflows.
struct SubflowExpansion {
  /// Subflow paths (graph-edge-pinned), demand-major order: pair 0's
  /// weighted paths first, then pair 1's, ...
  std::vector<graphs::Path> paths;
  /// Offered rate per subflow: pair rate * path weight, bps.
  std::vector<double> demand_bps;
  /// Elastic utility weight per subflow: max(1, pair users) * weight.
  std::vector<double> weights;
  /// Subflow -> pair index.
  std::vector<std::uint32_t> pair_of;
};

/// Expands a demand matrix against its route set, moving the paths out of
/// `routes`. Requires one route-set entry per pair; weights must be
/// positive, finite and sum to 1 per pair (they are NOT renormalized here
/// — the producer owns that invariant) and paths non-empty. Empty entries
/// (denied pairs) expand to nothing.
[[nodiscard]] SubflowExpansion expand_multipath(const DemandMatrix& demands,
                                                MultipathRouteSet routes);

/// How realize_routes allocates the subflows.
struct RealizeOptions {
  /// false: demand-capped max-min (the Flow backend); true: weighted
  /// alpha-fair at `alpha` (the Elastic backend).
  bool elastic = false;
  double alpha = 1.0;
  /// Alpha-fair sharding (1 = serial, 0 = all cores); byte-identical for
  /// every value. The max-min allocator always runs serially.
  std::size_t threads = 1;
  /// Optional allocator state carried across calls (nullptr = cold). Its
  /// incidence cache is fingerprint-guarded, so route churn rebuilds it
  /// silently and unchanged routes reuse it.
  WarmState* warm = nullptr;
};

/// A route set realized on the fluid allocators, at pair grain.
struct Realization {
  /// Demand order. A pair routed on one path reports that path's latency,
  /// whatever it delivered; a split pair reports the delivered-rate-
  /// weighted mean over its paths (offered-rate-weighted when it delivered
  /// nothing). Stretch divides by the direct geodesic latency at c (1 for
  /// co-located sites). A denied pair reports latency 0 and stretch 0.
  std::vector<PairOutcome> outcomes;
  /// Per-pair rate (sum of the pair's subflow rates); edge loads and
  /// round counters are the subflow allocation's.
  Allocation allocation;
  FlowLevelStats stats;
  /// Offline predictions with every routed subflow at its offered rate:
  /// demand-weighted mean path latency (s) and max link utilization over
  /// positive-capacity edges.
  double mean_path_latency_s = 0.0;
  double predicted_max_utilization = 0.0;
  /// Pairs with an empty route set.
  std::size_t denied_pairs = 0;
};

/// Realizes `routes` for `demands` over `view` (whose capacities already
/// carry any derates). Every path must be pinned over THIS view — edge ids
/// in range, each edge joining its consecutive nodes, endpoints matching
/// the pair — so a route set planned against another plan throws
/// cisp::Error instead of indexing out of range. `direct_km` supplies the
/// stretch denominator.
[[nodiscard]] Realization realize_routes(const SimTopologyView& view,
                                         const DemandMatrix& demands,
                                         MultipathRouteSet routes,
                                         const DirectKmFn& direct_km,
                                         const RealizeOptions& options = {});

}  // namespace cisp::net::flow
