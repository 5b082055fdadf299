#pragma once
// Output checks of the benchmark. Each operation — one design cell, one
// timeline epoch or one packet cell — is checked against the invariants
// its layer promises; an operation that breaks one counts as failed.

#include <cstdint>
#include <string>
#include <vector>

#include "design/problem.hpp"
#include "net/flow/monitors.hpp"
#include "net/routing.hpp"
#include "net/timeline/timeline.hpp"
#include "net/traffic_model.hpp"

namespace perfbench {

/// Attempted and failed operations, with the first few violations kept
/// for the report.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  /// Counts one operation; a non-empty `violation` marks it failed.
  void record(const std::string& operation, const std::string& violation);
};

/// A design cell: cost within the tower budget and mean stretch >= 1.
[[nodiscard]] std::string check_design_cell(const cisp::design::Topology& topo,
                                            double budget_towers);

/// A timeline epoch: delivered <= offered, max link utilization <= 1 + eps,
/// denied pairs (no path: stretch 0) deliver zero, and — when `te_routes`
/// is given — every routed pair's split weights are positive and sum to 1.
[[nodiscard]] std::string check_epoch(
    const cisp::net::timeline::EpochStats& row,
    const std::vector<cisp::net::flow::PairOutcome>& outcomes,
    const cisp::net::MultipathRouteSet* te_routes);

/// A packet cell: loss in [0, 1]; below the knee, the packet backend's
/// mean delay within 5% + 0.5 ms of the fluid backend's (the
/// packet_fidelity contract).
[[nodiscard]] std::string check_packet_cell(
    const cisp::net::TrafficStats& packet, const cisp::net::TrafficStats& fluid,
    bool below_knee);

/// Packet-vs-fluid mean delay error, % of the fluid delay.
[[nodiscard]] double delay_error_pct(const cisp::net::TrafficStats& packet,
                                     const cisp::net::TrafficStats& fluid);

}  // namespace perfbench
