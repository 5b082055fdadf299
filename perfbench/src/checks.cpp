#include "checks.hpp"

#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

// Relative slack for sums of doubles that are equal in exact arithmetic.
constexpr double kRelEps = 1e-9;
// Allocators fill links to capacity; utilization may exceed 1 by rounding.
constexpr double kUtilizationEps = 1e-6;

std::string describe(const char* what, double value, const char* bound,
                     double limit) {
  std::ostringstream os;
  os.precision(12);
  os << what << " " << value << " " << bound << " " << limit;
  return os.str();
}

}  // namespace

void Tally::record(const std::string& operation, const std::string& violation) {
  ++attempted;
  if (violation.empty()) return;
  ++failed;
  if (violations.size() < 8) violations.push_back(operation + ": " + violation);
}

std::string check_design_cell(const cisp::design::Topology& topo,
                              double budget_towers) {
  if (!(topo.cost_towers <= budget_towers * (1.0 + kRelEps))) {
    return describe("cost", topo.cost_towers, "exceeds budget", budget_towers);
  }
  if (!(topo.mean_stretch >= 1.0 - kRelEps)) {
    return describe("mean stretch", topo.mean_stretch, "below", 1.0);
  }
  return {};
}

std::string check_epoch(
    const cisp::net::timeline::EpochStats& row,
    const std::vector<cisp::net::flow::PairOutcome>& outcomes,
    const cisp::net::MultipathRouteSet* te_routes) {
  if (!(row.delivered_bps <= row.offered_bps * (1.0 + kRelEps))) {
    return describe("delivered", row.delivered_bps, "exceeds offered",
                    row.offered_bps);
  }
  if (!(row.max_link_utilization <= 1.0 + kUtilizationEps)) {
    return describe("max link utilization", row.max_link_utilization,
                    "exceeds", 1.0 + kUtilizationEps);
  }
  for (std::size_t f = 0; f < outcomes.size(); ++f) {
    const cisp::net::flow::PairOutcome& pair = outcomes[f];
    if (!(pair.delivered_bps <= pair.offered_bps * (1.0 + kRelEps))) {
      return "pair " + std::to_string(f) + " delivers more than offered";
    }
    if (pair.stretch <= 0.0 && pair.delivered_bps != 0.0) {
      return "denied pair " + std::to_string(f) + " delivers traffic";
    }
  }
  if (te_routes != nullptr) {
    for (std::size_t f = 0; f < te_routes->pair_paths.size(); ++f) {
      const auto& paths = te_routes->pair_paths[f];
      if (paths.empty()) {
        if (f < outcomes.size() && outcomes[f].delivered_bps != 0.0) {
          return "TE-denied pair " + std::to_string(f) + " delivers traffic";
        }
        continue;
      }
      double sum = 0.0;
      for (const cisp::net::WeightedPath& path : paths) {
        if (!(path.weight > 0.0)) {
          return "pair " + std::to_string(f) + " has a non-positive weight";
        }
        sum += path.weight;
      }
      if (!(std::abs(sum - 1.0) <= 1e-9 * static_cast<double>(paths.size()))) {
        return describe("split weights of a pair sum to", sum, "not", 1.0);
      }
    }
  }
  return {};
}

double delay_error_pct(const cisp::net::TrafficStats& packet,
                       const cisp::net::TrafficStats& fluid) {
  return std::abs(packet.mean_delay_s - fluid.mean_delay_s) /
         fluid.mean_delay_s * 100.0;
}

std::string check_packet_cell(const cisp::net::TrafficStats& packet,
                              const cisp::net::TrafficStats& fluid,
                              bool below_knee) {
  if (!(packet.loss_rate >= 0.0 && packet.loss_rate <= 1.0)) {
    return describe("packet loss", packet.loss_rate, "outside", 1.0);
  }
  if (!(fluid.loss_rate >= 0.0 && fluid.loss_rate <= 1.0)) {
    return describe("fluid loss", fluid.loss_rate, "outside", 1.0);
  }
  if (below_knee) {
    const double packet_ms = packet.mean_delay_s * 1e3;
    const double fluid_ms = fluid.mean_delay_s * 1e3;
    const double allowed_ms = 0.05 * fluid_ms + 0.5;
    if (!(fluid_ms > 0.0) || !(std::abs(packet_ms - fluid_ms) <= allowed_ms)) {
      return describe("packet delay ms", packet_ms, "misses fluid delay ms",
                      fluid_ms);
    }
  }
  return {};
}

}  // namespace perfbench
