#pragma once
// Happy-eyeballs candidate racing — the per-flow half of the multipath
// story (the TE optimizer in net/te/ is the per-aggregate half). Under
// degradation, every demand pair RACES two connection candidates, exactly
// like a dual-stack client racing address families:
//
//   * the MW candidate — the pair's current repaired route
//     (control::RouteRepairer), lowest latency but weather-exposed; its
//     handshake attempt succeeds with the worst degraded MW hop's
//     capacity factor (the weakest link carries the handshake) and
//     retries on a timer;
//   * the fiber candidate — the pair's shortest path over the fiber-only
//     subgraph of the intact plan, always up (the paper's backstop), but
//     started after a stagger handicap so a healthy MW path always wins
//     (the happy-eyeballs IPv6 preference, with MW in the preferred
//     role).
//
// The earliest completed handshake wins and its path is kept for the
// pair; ties prefer MW. A pair whose repaired route was DENIED races
// fiber alone — racing therefore recovers availability the stretch-bound
// denial gave up, at fiber latency. If every attempt of both candidates
// fails (a derated MW route dropping every handshake and no fiber path —
// impossible on plans with the fiber connectivity chain), the pair stays
// denied. Down links never reach the race: the repairer masks them.
//
// Determinism contract (pinned in te_test): each pair draws from its own
// Rng seeded hash_combine(0, pair index), so outcomes are independent of
// sharding — race() bound to a repairer at any thread count is
// byte-identical to race() at threads = 1, one serial loop. Healthy pairs consume exactly one
// always-success draw, so a degraded pair never perturbs its neighbors.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/builder.hpp"
#include "net/control/route_repair.hpp"

namespace cisp::net::control {

/// Head start of the MW candidate: fiber's first attempt launches this
/// much later (s).
inline constexpr double kRaceStaggerS = 0.005;
/// Retry timer after a failed handshake attempt (s).
inline constexpr double kRaceRetryS = 0.05;
/// Handshake attempts per candidate before it abandons the race.
inline constexpr std::uint32_t kRaceMaxAttempts = 3;

enum class RaceWinner : std::uint8_t { Microwave, Fiber, None };

[[nodiscard]] const char* to_string(RaceWinner winner);

/// One pair's race result.
struct RaceOutcome {
  RaceWinner winner = RaceWinner::None;
  /// The winning path, graph-edge-pinned over the intact-plan view;
  /// empty when the race failed (pair stays denied).
  graphs::Path path;
  /// Completion time of the winning handshake, s.
  double decision_s = 0.0;
  /// Handshake attempts each candidate consumed (0 = did not race).
  std::uint32_t mw_attempts = 0;
  std::uint32_t fiber_attempts = 0;
};

struct RacingReport {
  std::vector<RaceOutcome> outcomes;  ///< demand order
  std::size_t mw_winners = 0;
  std::size_t fiber_winners = 0;
  std::size_t failed_pairs = 0;
  /// Pairs racing fiber because their repaired route was denied.
  std::size_t recovered_pairs = 0;

  /// Winner paths as weight-1 route sets for TrafficRunOptions::route_set
  /// (empty set = denied).
  [[nodiscard]] MultipathRouteSet route_set() const;
};

/// Races the candidates of a RouteRepairer's demand pairs. The racer
/// reads everything from the repairer it is bound to — its view, demands,
/// current routes and capacity factors — and keeps only the fiber
/// fallbacks, precomputed at construction (one Dijkstra per distinct
/// source over the fiber-only subgraph; the repairer's graph never
/// changes, so they stay valid across every `apply`). race() is then
/// cheap enough to run per failure draw. `repairer` must outlive the
/// racer.
class CandidateRacer {
 public:
  explicit CandidateRacer(const RouteRepairer& repairer);

  /// Races every pair of the repairer's current routes at its current
  /// capacity factors, sharded like the repairer (byte-identical at every
  /// thread count).
  [[nodiscard]] RacingReport race() const;

 private:
  [[nodiscard]] RaceOutcome race_pair(std::size_t pair) const;

  const RouteRepairer* repairer_;
  /// Per graph edge: the plan link it realizes is MW.
  std::vector<char> edge_is_mw_;
  std::vector<graphs::Path> fiber_paths_;   ///< per demand, pinned
};

}  // namespace cisp::net::control
