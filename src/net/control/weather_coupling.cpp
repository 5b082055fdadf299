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

std::vector<LinkDelta> deltas_from_factors(
    const LinkPlan& plan, const std::vector<double>& factors,
    const std::vector<LinkState>& previous) {
  CISP_REQUIRE(factors.size() == plan.links.size(),
               "factors / plan size mismatch");
  CISP_REQUIRE(previous.size() == plan.links.size(),
               "link state / plan size mismatch");
  std::vector<LinkDelta> deltas;
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    if (!plan.links[i].is_mw) continue;
    const bool up = factors[i] > 0.0;
    const double derate = up ? factors[i] : 1.0;
    if (previous[i].up != up || previous[i].capacity_factor != derate) {
      deltas.push_back(LinkDelta{i, up, derate});
    }
  }
  return deltas;
}

}  // namespace cisp::net::control
