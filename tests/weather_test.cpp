// Unit and integration tests for the weather subsystem: storm-cell
// kinematics, rain field statistics (wet fractions, seasonal and
// convective structure), the rain -> link-capacity rule over tower and
// great-circle hops, and a reduced Fig. 7 study on a fast scenario.

#include <gtest/gtest.h>

#include <cmath>

#include "design/greedy.hpp"
#include "geo/geodesic.hpp"
#include "design/scenario.hpp"
#include "util/rng.hpp"
#include "weather/outage.hpp"
#include "weather/rainfield.hpp"
#include "weather/study.hpp"

namespace cisp::weather {
namespace {

const terrain::BoundingBox kUsBox{24.0, 50.0, -125.5, -66.0};

TEST(StormCell, MovesAlongHeadingAndRespectsLifetime) {
  StormCell cell;
  cell.birth_pos = {40.0, -100.0};
  cell.birth_s = 1000.0;
  cell.death_s = 1000.0 + 7200.0;  // 2 hours
  cell.peak_mm_h = 50.0;
  cell.sigma_km = 20.0;
  cell.heading_deg = 90.0;
  cell.speed_kmh = 40.0;
  EXPECT_FALSE(cell.active(0.0));
  EXPECT_TRUE(cell.active(4600.0));
  const auto mid = cell.center_at(cell.birth_s + 3600.0);
  EXPECT_NEAR(geo::distance_km(cell.birth_pos, mid), 40.0, 0.5);
  EXPECT_GT(mid.lon_deg, cell.birth_pos.lon_deg);  // moved east
}

TEST(StormCell, RainPeaksAtCenterAndDecaysWithDistance) {
  StormCell cell;
  cell.birth_pos = {40.0, -100.0};
  cell.birth_s = 0.0;
  cell.death_s = 7200.0;
  cell.peak_mm_h = 60.0;
  cell.sigma_km = 15.0;
  cell.speed_kmh = 0.0;
  const double t = 3600.0;  // mid-life: envelope = sin(pi/2) = 1
  const double at_center = cell.rain_at(cell.birth_pos, t);
  EXPECT_NEAR(at_center, 60.0, 1.0);
  const auto off = geo::destination(cell.birth_pos, 0.0, 15.0);
  EXPECT_NEAR(cell.rain_at(off, t), 60.0 * std::exp(-0.5), 1.0);
  const auto far = geo::destination(cell.birth_pos, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(cell.rain_at(far, t), 0.0);
}

TEST(RainField, DeterministicAndYearScaleCellCount) {
  const RainField a(kUsBox);
  const RainField b(kUsBox);
  EXPECT_EQ(a.cell_count(), b.cell_count());
  // ~30-70 cells/day for a year.
  EXPECT_GT(a.cell_count(), 8000u);
  EXPECT_LT(a.cell_count(), 30000u);
}

TEST(RainField, SummerHasMoreActiveCellsThanWinter) {
  const RainField field(kUsBox);
  std::size_t winter = 0;
  std::size_t summer = 0;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    winter += field.active_cells((10.0 + i) * kDayS + 43200.0).size();
    summer += field.active_cells((190.0 + i) * kDayS + 43200.0).size();
  }
  EXPECT_GT(summer, winter);
}

TEST(RainField, WetFractionIsRealistic) {
  // Point-in-time wet fraction over random (place, time) samples: real
  // mid-latitude continents see rain over a few percent of area-time.
  const RainField field(kUsBox);
  Rng rng(7);
  int wet = 0;
  int heavy = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const geo::LatLon p{rng.uniform(kUsBox.lat_min, kUsBox.lat_max),
                        rng.uniform(kUsBox.lon_min, kUsBox.lon_max)};
    const double rate = field.rain_mm_h(p, rng.uniform() * kYearS);
    if (rate > 0.25) ++wet;
    if (rate > 50.0) ++heavy;
  }
  const double wet_fraction = static_cast<double>(wet) / n;
  EXPECT_GT(wet_fraction, 0.01);
  EXPECT_LT(wet_fraction, 0.20);
  // Violent rain is rare but must exist.
  EXPECT_GT(heavy, 0);
  EXPECT_LT(static_cast<double>(heavy) / n, 0.005);
}

TEST(RainField, RejectsTimeOutsideYear) {
  const RainField field(kUsBox);
  EXPECT_THROW((void)field.rain_mm_h({40, -100}, -1.0), cisp::Error);
  EXPECT_THROW((void)field.rain_mm_h({40, -100}, kYearS + 1.0), cisp::Error);
}

/// The tower path a -> b as a one-hop link.
HopList one_hop(const infra::Tower& a, const infra::Tower& b) {
  design::SiteLink link;
  link.tower_path = {0, 1};
  return tower_hops(link, {a, b});
}

TEST(Outage, DryHopNeverFails) {
  const RainField field(kUsBox, {.seed = 1, .cells_per_day_winter = 0.0,
                                 .cells_per_day_summer = 0.0});
  const HopList hops =
      one_hop({{40.0, -100.0}, 100.0}, {{40.0, -99.0}, 100.0});
  ASSERT_EQ(hops.size(), 1u);
  // Both towers and the midpoint are sampled.
  EXPECT_EQ(hops[0].rain_points.size(), 3u);
  EXPECT_EQ(link_capacity_factor(hops, field, 1000.0), 1.0);
}

TEST(Outage, ViolentCellOverHopKnocksItOut) {
  // The outage threshold for an 85-km hop sits near 40-60 mm/h.
  const double threshold = rf::outage_rain_rate_mm_h(85.0, kLinkBudget);
  EXPECT_GT(threshold, 10.0);
  EXPECT_LT(threshold, 200.0);
  EXPECT_TRUE(rf::hop_fails_in_rain(85.0, threshold * 1.1, kLinkBudget));
}

TEST(Outage, LinkDownIffSomeHopDown) {
  const RainField field(kUsBox);
  // Find a moment & place with violent rain by scanning cells.
  bool found_down_hop = false;
  for (double t = 180.0 * kDayS; t < 230.0 * kDayS && !found_down_hop;
       t += kDayS / 4.0) {
    for (const StormCell* cell : field.active_cells(t)) {
      if (cell->peak_mm_h < 60.0) continue;
      const auto center = cell->center_at(t);
      if (!kUsBox.contains(center)) continue;
      const HopList wet =
          one_hop({geo::destination(center, 270.0, 40.0), 100.0},
                  {geo::destination(center, 90.0, 40.0), 100.0});
      if (link_capacity_factor(wet, field, t) > 0.0) continue;
      // A series link carrying this hop is down, whatever its other hops.
      HopList series = great_circle_hops({45.0, -120.0}, {45.0, -118.0});
      ASSERT_EQ(series.size(), 3u);  // ~157 km in 75-km hops
      series.push_back(wet[0]);
      EXPECT_EQ(link_capacity_factor(series, field, t), 0.0);
      found_down_hop = true;
      break;
    }
  }
  EXPECT_TRUE(found_down_hop);
}

TEST(Outage, GreatCircleSplitsIntoEqualHops) {
  const geo::LatLon a{40.0, -100.0};
  const geo::LatLon b{40.0, -96.0};
  const double km = geo::distance_km(a, b);
  const HopList hops = great_circle_hops(a, b);
  ASSERT_EQ(hops.size(),
            static_cast<std::size_t>(std::ceil(km / kGreatCircleHopKm)));
  double total_km = 0.0;
  for (const Hop& hop : hops) {
    EXPECT_EQ(hop.km, hops[0].km);
    EXPECT_LE(hop.km, kGreatCircleHopKm);
    EXPECT_EQ(hop.rain_points.size(), 1u);  // the hop midpoint
    total_km += hop.km;
  }
  EXPECT_NEAR(total_km, km, 1e-9);
  EXPECT_TRUE(great_circle_hops(a, a).empty());
}

TEST(Study, ReducedYearStudyMatchesPaperShape) {
  design::ScenarioOptions options;
  options.fast = true;
  options.top_cities = 40;
  const auto scenario = design::build_us_scenario(options);
  const auto problem = design::city_city_problem(scenario, 500.0, 20);
  const auto topo = design::solve_greedy(problem.input);
  ASSERT_FALSE(topo.links.empty());

  const RainField rain(scenario.region.box);
  StudyParams params;
  params.days = 120;  // reduced year for test speed
  const auto result = run_weather_study(problem, topo,
                                        scenario.tower_graph.towers, rain,
                                        params);
  ASSERT_EQ(result.best_stretch.count(), 20u * 19u / 2u);
  // Paper's qualitative claims:
  // (1) best <= p99 <= worst pairwise distributions;
  EXPECT_LE(result.best_stretch.median(), result.p99_stretch.median() + 1e-9);
  EXPECT_LE(result.p99_stretch.median(), result.worst_stretch.median() + 1e-9);
  // (2) even the worst day stays well below fiber for the median pair;
  EXPECT_LT(result.worst_stretch.median(), result.fiber_stretch.median());
  // (3) outages happen (weather is real) but most links stay up.
  EXPECT_GT(result.days_with_any_outage, 0);
  EXPECT_LT(result.mean_links_down_fraction, 0.25);
}

TEST(Study, ResultBitIdenticalAcrossThreadCounts) {
  design::ScenarioOptions options;
  options.fast = true;
  options.top_cities = 30;
  const auto scenario = design::build_us_scenario(options);
  const auto problem = design::city_city_problem(scenario, 400.0, 12);
  const auto topo = design::solve_greedy(problem.input);
  ASSERT_FALSE(topo.links.empty());

  const RainField rain(scenario.region.box);
  StudyParams params;
  params.days = 40;
  params.threads = 1;
  const auto serial = run_weather_study(problem, topo,
                                        scenario.tower_graph.towers, rain,
                                        params);
  params.threads = 4;
  const auto parallel = run_weather_study(problem, topo,
                                          scenario.tower_graph.towers, rain,
                                          params);
  // The per-day seeds and the day-ordered merge make the whole result
  // bit-identical, not merely statistically equivalent.
  EXPECT_EQ(serial.best_stretch.values(), parallel.best_stretch.values());
  EXPECT_EQ(serial.p99_stretch.values(), parallel.p99_stretch.values());
  EXPECT_EQ(serial.worst_stretch.values(), parallel.worst_stretch.values());
  EXPECT_EQ(serial.fiber_stretch.values(), parallel.fiber_stretch.values());
  EXPECT_EQ(serial.mean_links_down_fraction,
            parallel.mean_links_down_fraction);
  EXPECT_EQ(serial.days_with_any_outage, parallel.days_with_any_outage);
}

}  // namespace
}  // namespace cisp::weather
