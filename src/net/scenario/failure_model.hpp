#pragma once
// Link-failure models: cut MW links out of a backend-neutral LinkPlan
// BEFORE routing, so both traffic backends see the degraded substrate
// through the same seam (the paper's §6.5 weather/loss perturbations, as
// topology events rather than packet loss). Only MW links fail — fiber is
// the paper's always-on backstop, and keeping it intact guarantees every
// demand stays routable (the fiber mesh carries a connectivity chain).
//
//   CutLargestK — deterministic worst-case-ish cuts: the k highest-
//                 capacity MW links go down (ties broken by plan index),
//                 the adversarial analogue of losing the trunk links.
//   RandomDown  — seeded stochastic draws: every MW link is down
//                 independently with probability p (one Rng seeded from
//                 `seed`, links drawn in plan order — deterministic per
//                 seed, so replicated sweeps are reproducible).
//
// Determinism contract (pinned by scenario_test): RandomDown consumes one
// Bernoulli draw per MW link, in plan-link order, from a single
// Rng(seed) — fiber links consume NO draws. The Rng is the repo's
// integer xoshiro256**, so a pinned (plan, seed) yields the identical
// failed-link set on every platform and at every thread count
// (apply_failures itself is single-threaded and pure; callers fan draws
// across threads by deriving per-draw seeds, never by sharing one Rng).
//
// MW-ONLY FAILURE INVARIANT: no model kind ever takes a fiber link down.
// Fiber is the paper's always-on backstop; the fiber mesh carries a
// connectivity chain, so every demand stays routable on the degraded
// plan and downstream routing (compute_routes, RouteRepairer baselines)
// may assume it. Weather-coupled per-link probabilities keep the
// invariant by construction (non-MW entries are ignored).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/builder.hpp"

namespace cisp::net::scenario {

struct FailureModel {
  enum class Kind {
    None,
    CutLargestK,
    RandomDown,
  };
  Kind kind = Kind::None;
  /// CutLargestK: how many MW links to cut (clamped to the MW link count).
  std::size_t k = 0;
  /// RandomDown: independent per-MW-link down probability in [0, 1].
  double down_probability = 0.0;
  /// RandomDown: draw seed.
  std::uint64_t seed = 0;
  /// RandomDown: optional per-link probabilities, one entry per plan link
  /// (control_availability fills this with each MW link's fraction of
  /// sampled epochs at capacity factor 0, from the weather coupling's
  /// control::link_capacity_factors). When non-empty it overrides
  /// `down_probability`; entries for non-MW links are ignored — the
  /// MW-only invariant holds regardless of what the vector says. Draw
  /// consumption is unchanged: one draw per MW link in plan order.
  std::vector<double> per_link_down_probability;
};

struct FailureOutcome {
  /// The degraded plan: the input plan minus the failed links.
  LinkPlan plan;
  /// Indices (into the INPUT plan's link list) of the links that failed.
  std::vector<std::size_t> failed_links;
};

/// Applies the failure model to a planned substrate. Deterministic: the
/// same (plan, model) always yields the same outcome.
[[nodiscard]] FailureOutcome apply_failures(const LinkPlan& plan,
                                            const FailureModel& model);

/// Parses the scenario-experiment `failure_mode` parameter:
///   "none" | "cut" (k supplied separately) | "rand" / "random".
[[nodiscard]] FailureModel::Kind parse_failure_kind(std::string_view text);
[[nodiscard]] const char* to_string(FailureModel::Kind kind);

}  // namespace cisp::net::scenario
