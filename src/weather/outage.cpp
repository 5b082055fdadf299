#include "weather/outage.hpp"

#include <algorithm>
#include <cmath>

#include "geo/geodesic.hpp"
#include "rf/rain.hpp"

namespace cisp::weather {

HopList tower_hops(const design::SiteLink& link,
                   const std::vector<infra::Tower>& towers) {
  HopList hops;
  for (std::size_t h = 0; h + 1 < link.tower_path.size(); ++h) {
    const geo::LatLon& a = towers[link.tower_path[h]].pos;
    const geo::LatLon& b = towers[link.tower_path[h + 1]].pos;
    const double km = geo::distance_km(a, b);
    if (km <= 0.0) continue;
    hops.push_back({km, {a, geo::interpolate(a, b, 0.5), b}});
  }
  return hops;
}

HopList great_circle_hops(const geo::LatLon& a, const geo::LatLon& b) {
  const double path_km = geo::distance_km(a, b);
  if (path_km <= 0.0) return {};
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(path_km / kGreatCircleHopKm)));
  const double km = path_km / static_cast<double>(count);
  HopList hops;
  hops.reserve(count);
  for (std::size_t h = 0; h < count; ++h) {
    const double f =
        (static_cast<double>(h) + 0.5) / static_cast<double>(count);
    hops.push_back({km, {geo::interpolate(a, b, f)}});
  }
  return hops;
}

double link_capacity_factor(const HopList& hops, const RainField& rain,
                            double t_s) {
  double factor = 1.0;
  for (const Hop& hop : hops) {
    double rain_mm_h = 0.0;
    for (const geo::LatLon& p : hop.rain_points) {
      rain_mm_h = std::max(rain_mm_h, rain.rain_mm_h(p, t_s));
    }
    if (rain_mm_h <= 0.0) continue;  // a dry hop keeps full capacity
    const double margin_db = rf::fade_margin_db(hop.km, kLinkBudget);
    const double attenuation_db = rf::hop_rain_attenuation_db(
        hop.km, rain_mm_h, kLinkBudget.frequency_ghz);
    if (attenuation_db >= margin_db) return 0.0;
    if (attenuation_db > margin_db - kAdaptiveHeadroomDb) {
      factor =
          std::min(factor, (margin_db - attenuation_db) / kAdaptiveHeadroomDb);
    }
  }
  return factor;
}

}  // namespace cisp::weather
