#pragma once
// Couples the synthetic rain process to the LinkPlan: per-MW-link capacity
// factors from weather::link_capacity_factor (the same rain -> attenuation
// vs fade-margin rule the Fig. 7 study runs over tower hops), emitted as
// LinkDeltas the RouteRepairer consumes. This is the pipeline that turns
// fig07-class weather and the failure scenarios into ONE story — a year of
// weather-driven topology churn with per-epoch rerouting.
//
// A planned link carries no tower path, so its hops are the great circle
// between its endpoints split into budget-scale hops
// (weather::great_circle_hops), built once per link.
//
// Fiber never degrades (the paper's always-on backstop), so deltas are
// emitted for MW links only.

#include <vector>

#include "geo/latlon.hpp"
#include "net/control/route_repair.hpp"
#include "weather/outage.hpp"
#include "weather/rainfield.hpp"

namespace cisp::net::control {

/// Great-circle hops for every link of `plan` from per-site positions
/// (indices parallel the plan's link list; fiber links get no hops).
[[nodiscard]] std::vector<weather::HopList> link_geometry(
    const LinkPlan& plan, const std::vector<geo::LatLon>& sites);

/// Capacity factors for every link of `plan` at time `t_s` (fiber entries
/// are 1.0). Epoch pipelines precompute these once per epoch and replay
/// them across sweep cells.
[[nodiscard]] std::vector<double> link_capacity_factors(
    const LinkPlan& plan, const std::vector<weather::HopList>& geometry,
    const weather::RainField& rain, double t_s);

/// LinkDeltas from per-link capacity factors relative to `previous` link
/// state: only MW links whose state changed appear, so consecutive epochs
/// hand the repairer exactly the churn. A factor of 0 is emitted as
/// up=false (binary outage); `previous` must have one entry per plan link
/// (RouteRepairer::link_state()).
[[nodiscard]] std::vector<LinkDelta> deltas_from_factors(
    const LinkPlan& plan, const std::vector<double>& factors,
    const std::vector<LinkState>& previous);

}  // namespace cisp::net::control
