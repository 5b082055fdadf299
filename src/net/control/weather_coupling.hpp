#pragma once
// Couples the synthetic rain process to the LinkPlan: per-link capacity
// factors from weather::link_capacity_factor (the same rain -> attenuation
// vs fade-margin rule the Fig. 7 study runs over tower hops), in the one
// link-state shape the RouteRepairer, the racer and the allocator read
// (net/builder.hpp: a factor in [0, 1] per plan link, 0 = down). This is
// the pipeline that turns fig07-class weather and the failure scenarios
// into ONE story — a year of weather-driven topology churn with per-epoch
// rerouting.
//
// A planned link carries no tower path, so its hops are the great circle
// between its endpoints split into budget-scale hops
// (weather::great_circle_hops), built once per link.
//
// Fiber never degrades (the paper's always-on backstop): fiber links get no
// hops, so their factor is always 1.

#include <vector>

#include "geo/latlon.hpp"
#include "net/builder.hpp"
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

}  // namespace cisp::net::control
