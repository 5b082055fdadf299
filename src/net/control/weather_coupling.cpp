#include "net/control/weather_coupling.hpp"

#include "util/error.hpp"

namespace cisp::net::control {

std::vector<weather::HopList> link_geometry(
    const LinkPlan& plan, const std::vector<geo::LatLon>& sites) {
  CISP_REQUIRE(sites.size() >= plan.node_count,
               "site positions do not cover the plan's nodes");
  std::vector<weather::HopList> geometry(plan.links.size());
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const PlannedLink& link = plan.links[i];
    if (!link.is_mw) continue;  // fiber is the always-on backstop
    geometry[i] = weather::great_circle_hops(sites[link.a], sites[link.b]);
  }
  return geometry;
}

std::vector<double> link_capacity_factors(
    const LinkPlan& plan, const std::vector<weather::HopList>& geometry,
    const weather::RainField& rain, double t_s) {
  CISP_REQUIRE(geometry.size() == plan.links.size(),
               "geometry / plan size mismatch");
  std::vector<double> factors;
  factors.reserve(geometry.size());
  for (const weather::HopList& hops : geometry) {
    factors.push_back(weather::link_capacity_factor(hops, rain, t_s));
  }
  return factors;
}

}  // namespace cisp::net::control
