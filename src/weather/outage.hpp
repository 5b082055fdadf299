#pragma once
// Rain -> microwave link capacity (§6.1): the one rule the Fig. 7 study,
// the control plane's weather coupling and the timeline share. A hop is
// down when rain attenuation reaches its fade margin; within
// kAdaptiveHeadroomDb of the margin, adaptive modulation derates it
// linearly. A series link is only as alive as its worst hop. The paper's
// binary failure model is the factor-0 boundary of this rule.
//
// A link's hops come from one of two builders, built once per link: its
// engineered tower path (the Fig. 7 study) or, for a planned link without
// towers, an equal split of the great circle between its endpoints (the
// control plane and the timeline).

#include <vector>

#include "design/link_engineering.hpp"
#include "geo/latlon.hpp"
#include "infra/towers.hpp"
#include "rf/link_budget.hpp"
#include "weather/rainfield.hpp"

namespace cisp::weather {

/// Link budget every hop is engineered to.
inline constexpr rf::LinkBudgetParams kLinkBudget{};
/// Attenuation window (dB) below the fade margin where adaptive
/// modulation derates a hop instead of dropping it.
inline constexpr double kAdaptiveHeadroomDb = 12.0;
/// Hop length a great-circle link is split into (the paper's relays sit
/// every 60-100 km).
inline constexpr double kGreatCircleHopKm = 75.0;

/// One microwave hop as the rain model sees it: its length and the points
/// where rain is sampled (the heaviest sample governs).
struct Hop {
  double km = 0.0;
  std::vector<geo::LatLon> rain_points;
};

/// A link's hops, in series.
using HopList = std::vector<Hop>;

/// Hops of an engineered tower path. Each tower-tower hop samples both
/// towers and its midpoint, as heavy cells are smaller than hops.
/// Zero-length hops are dropped.
[[nodiscard]] HopList tower_hops(const design::SiteLink& link,
                                 const std::vector<infra::Tower>& towers);

/// Hops of a link without towers: the great circle a-b split into
/// ceil(km / kGreatCircleHopKm) equal hops, each sampled at its midpoint
/// (cells are larger than a hop, and the P.530 path-reduction factor
/// already accounts for partial cover). Empty when a == b.
[[nodiscard]] HopList great_circle_hops(const geo::LatLon& a,
                                        const geo::LatLon& b);

/// Fraction of nominal capacity the link keeps at time t: 1 with full
/// margin on every hop, 0 when some hop is down. A link without hops
/// (fiber) never degrades.
[[nodiscard]] double link_capacity_factor(const HopList& hops,
                                          const RainField& rain, double t_s);

}  // namespace cisp::weather
