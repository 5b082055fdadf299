#pragma once
// Per-pair multipath candidate gathering — the first half of the TE
// backend (the second half, split.hpp, weighs the candidates). The
// gather/weigh split mirrors the happy-eyeballs architecture the racing
// policy (net/control/candidate_racing.hpp) uses at the per-flow grain:
// candidates are collected ONCE against the designed topology, then
// re-weighted (or re-raced) cheaply as conditions change.
//
// Three generators feed one pool per ordered demand pair:
//   * Yen's k shortest loopless paths (graph/ksp) — the latency-ordered
//     spine of the pool.
//   * two successive node-disjoint shortest paths — fig04b's design-side
//     disjointness, reused so the traffic side can actually SPLIT across
//     the tower-disjoint alternatives the design paid for.
//   * MCF primary paths (graph/mcf) for the heaviest pairs — max
//     concurrent flow sees capacities, so it proposes the capacity-aware
//     detours Yen (latency-only) structurally cannot.
//
// Candidates are stretch-filtered (path latency over geodesic-at-c within
// `max_stretch`), except that a pair's latency-shortest path is ALWAYS
// kept — the TE mode never serves fewer pairs than single-path shortest
// routing. Where parallel arcs exist between consecutive sites (an MW
// trunk and a fiber edge side by side), each node-sequence candidate is
// pinned twice — the min-latency realization and the max-capacity
// realization — so the optimizer can deliberately shift a split onto
// parallel fiber; identical pinnings dedup.
//
// Determinism: pairs are gathered with independent per-slot writes
// (engine::parallel_for), every per-pair step is a pure function of the
// inputs, and candidate order is (length, node sequence, edge sequence)
// lexicographic — the set is byte-identical at every thread count.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/flow/monitors.hpp"
#include "net/routing.hpp"

namespace cisp::net::te {

struct CandidateOptions {
  /// Yen k-shortest paths gathered per pair.
  std::size_t k_shortest = 4;
  /// Admission bound: candidates with stretch above this are dropped
  /// (the pair's shortest path is exempt, so pairs never become
  /// unroutable here).
  double max_stretch = std::numeric_limits<double>::infinity();
  /// Heaviest-by-rate pairs routed through the MCF (ties: pair index);
  /// 0 = no MCF proposals. Max concurrent flow reads the gather
  /// capacities, so these are the only capacity-aware proposals in the
  /// pool.
  std::size_t mcf_pairs = 64;
};

/// Candidate pool of one ordered demand pair. Paths are graph-edge-pinned
/// over the gather view and sorted by (length, nodes, edges); `stretch`
/// parallels `paths`.
struct PairCandidates {
  std::vector<graphs::Path> paths;
  std::vector<double> stretch;
};

struct CandidateSet {
  /// One pool per demand, in demand order.
  std::vector<PairCandidates> pairs;
  /// Fingerprint of everything the gather read (graph shape + latencies,
  /// gather capacities, demand endpoints + rates, options) — the warm
  /// reuse guard in split.hpp.
  std::uint64_t key = 0;
  /// Concurrent-throughput factor of the MCF sub-solve (0 when mcf_pairs
  /// is 0 or no pair qualified).
  double mcf_lambda = 0.0;
};

/// Fingerprint over the gather inputs; generate_candidates stamps it into
/// the returned set and SplitWarmState compares it before reuse.
[[nodiscard]] std::uint64_t candidate_key(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands,
    const CandidateOptions& options);

/// Gathers the candidate pool of every demand pair over `view`. The
/// view's capacities are the GATHER capacities: they steer the MCF
/// sub-solve only (Yen/disjoint are latency-pure). Pass the nominal
/// (intact) capacities when gathering once for a whole degraded-epoch
/// sequence — per-epoch degradation belongs to the split solve, which
/// re-weighs the pool instead of re-gathering it. Every demand must be
/// routable (compute_routes' contract). `threads`: 1 = serial, 0 = all
/// cores; the result is byte-identical for every value.
[[nodiscard]] CandidateSet generate_candidates(
    const SimTopologyView& view, const std::vector<TrafficDemand>& demands,
    const flow::DirectKmFn& direct_km, const CandidateOptions& options,
    std::size_t threads = 1);

}  // namespace cisp::net::te
