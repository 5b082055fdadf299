#pragma once
// Max-min fair rate allocation over installed routes — the fluid
// counterpart of running CBR sources through the packet simulator. The
// classic progressive-filling algorithm: raise every unfrozen flow's rate
// at the same water level; when a link saturates, freeze the flows
// crossing it at their current rate (they are bottlenecked there); when a
// flow reaches its offered demand, freeze it too (demand-capped max-min).
// Terminates after at most flows + edges rounds.
//
// Water-level form: every unfrozen flow starts at 0 and receives the same
// `+= h` sequence, so its rate IS the running water level; one level is
// kept and written into a flow's rate when it freezes. The demand event
// comes from a cursor over the active flows sorted once by (demand,
// index) — fl(demand - level) is monotone in demand, so the first active
// entry holds the minimum — and the demand-met test only scans the
// window of demands within level * (1 + 1e-6), beyond which no flow can
// pass it. The edge event, the capacity update and the saturation scan
// run over an ascending list of live edges (some active flow crosses
// them), compacted after each freeze. A round thus costs O(live edges +
// frozen flows) rather than O(flows + edges), with the same float
// operations in the same order as a full scan: results are bitwise those
// of the textbook loop.
//
// Determinism contract: the allocator runs serially, so the returned
// allocation is byte-identical for EVERY thread count its callers use.
// Rounds stay serial because they are short: the largest design measured
// (the all-center US week, 3782 flows) starts its fill with 552 live
// edges, too few to pay for sharding a round.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/routing.hpp"

namespace cisp::net::flow {

/// Epoch-to-epoch allocator state for streaming timelines. Holds the
/// per-flow edge sequences and the edge -> flows incidence derived from
/// one (graph, paths) pair — the dominant setup cost of a solve — plus
/// the alpha-fair dual prices of the previous solve. A fingerprint over
/// the path node/edge sequences guards reuse: a warm state whose paths no
/// longer match is silently rebuilt, so the result NEVER depends on the
/// caller invalidating the cache correctly. Warm-started max-min results
/// are byte-identical to cold starts (the progressive fill re-runs on
/// the cached structure); warm-started alpha-fair results satisfy the
/// same KKT residual as cold starts (only the price seed changes).
struct WarmState {
  /// Incidence cache (structure only — no rates are carried over).
  std::vector<std::vector<graphs::EdgeId>> flow_edges;
  std::vector<std::vector<std::uint32_t>> edge_flows;
  std::uint64_t incidence_key = 0;
  bool has_incidence = false;
  /// Dual prices of the previous alpha-fair solve, in its normalized
  /// units. Seeding the next solve from these replaces the cold all-ones
  /// start; convergence is still driven to the same residual.
  std::vector<double> price;
  bool has_price = false;
  /// Solves that reused the cached incidence (observability + tests).
  std::size_t incidence_reuses = 0;
};

struct AllocatorOptions {
  /// Optional warm state carried across solves (nullptr = cold start).
  /// Must outlive the call; the allocator updates it in place.
  WarmState* warm = nullptr;
};

struct Allocation {
  /// Max-min fair rate per flow (same order as the input paths), bps.
  /// Never exceeds the flow's offered demand.
  std::vector<double> rate_bps;
  /// Allocated load per graph edge, bps (sum of its flows' rates).
  std::vector<double> edge_load_bps;
  /// Progressive-filling rounds executed. For the alpha-fair allocator
  /// this is the SUM of dual iterations and Pareto fill rounds (the
  /// historical meaning); the parts are broken out below.
  std::size_t rounds = 0;
  /// Edges that saturated and froze at least one flow.
  std::size_t bottleneck_edges = 0;
  /// Dual-ascent price iterations (alpha-fair only; 0 for pure max-min).
  std::size_t dual_iterations = 0;
  /// Progressive-filling rounds (max-min itself, or the alpha-fair
  /// leftover-capacity Pareto fill).
  std::size_t fill_rounds = 0;
};

/// Computes the demand-capped max-min fair allocation of `demand_bps`
/// flows over their (pinned) paths against the view's edge capacities.
/// `paths[f]` must be routable; its edge sequence is taken from
/// `paths[f].edges` when pinned (compute_routes pins them) and resolved
/// via path_edges() otherwise. Every demand must be finite.
[[nodiscard]] Allocation max_min_allocate(
    const SimTopologyView& view, const std::vector<graphs::Path>& paths,
    const std::vector<double>& demand_bps,
    const AllocatorOptions& options = {});

namespace detail {

/// Fingerprint of the (graph shape, paths, demand-positivity) triple that
/// determines an allocator's incidence structure. `demand_gated` selects
/// the alpha-fair flavor, whose edge -> flows lists skip zero-demand
/// flows (max-min keeps them); the two flavors never collide on a key.
[[nodiscard]] std::uint64_t warm_incidence_key(
    const SimTopologyView& view, const std::vector<graphs::Path>& paths,
    const std::vector<double>& demand_bps, bool demand_gated);

/// Returns `state` filled with the incidence for (view, paths): reuses
/// the cached structure when the fingerprint matches, rebuilds otherwise.
/// Validates that every path is routable on the build path (a cache hit
/// already validated the identical paths).
void ensure_incidence(const SimTopologyView& view,
                      const std::vector<graphs::Path>& paths,
                      const std::vector<double>& demand_bps,
                      bool demand_gated, WarmState& state);

}  // namespace detail

}  // namespace cisp::net::flow
