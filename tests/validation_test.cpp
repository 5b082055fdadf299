// Validation against the real-world anchor points the paper cites:
// - §2/§3.1: McKay Brothers' Chicago-NJ HFT relay — ~1,183 km, ~20
//   line-of-sight hops, end-to-end within 1% of c-latency, including a
//   96 km hop over Lake Michigan (Chicago -> Galien, MI).
// - §3.3: the parallel-series geometry numbers (100 km hops need ~10.6 km
//   series separation; 10 km divergence on a 500 km link costs ~0.2%).

#include <gtest/gtest.h>

#include "design/link_engineering.hpp"
#include "design/parallel_series.hpp"
#include "design/scenario.hpp"
#include "geo/geodesic.hpp"
#include "rf/fresnel.hpp"
#include "terrain/profile.hpp"
#include "util/error.hpp"

namespace cisp::design {
namespace {

TEST(ParallelSeries, PaperSeparationNumber) {
  // Paper: "for a tower-tower hop distance of 100 km, the minimum distance
  // between two parallel towers should be 100 * tan(6 deg) = 10.6 km".
  EXPECT_NEAR(min_series_separation_km(100.0), 10.51, 0.15);
}

TEST(ParallelSeries, PaperDivergenceNumber) {
  // Paper: "for a 500 km long cISP link, the midpoint diverging 10 km from
  // the geodesic would increase latency by a negligible 0.2%".
  const double stretch = lateral_divergence_stretch(500.0, 10.0);
  EXPECT_NEAR((stretch - 1.0) * 100.0, 0.08, 0.13);  // ~0.1-0.2%
  EXPECT_LT(stretch, 1.002);
}

TEST(ParallelSeries, SeriesBandsMatchPaper) {
  // "< 1 Gbps: one series; 1-4 Gbps: 2; 4-9 Gbps: 3".
  EXPECT_EQ(series_for_demand(0.5, 1.0), 1);
  EXPECT_EQ(series_for_demand(1.0, 1.0), 1);
  EXPECT_EQ(series_for_demand(1.5, 1.0), 2);
  EXPECT_EQ(series_for_demand(4.0, 1.0), 2);
  EXPECT_EQ(series_for_demand(4.1, 1.0), 3);
  EXPECT_EQ(series_for_demand(9.0, 1.0), 3);
  EXPECT_EQ(series_for_demand(9.5, 1.0), 4);
  EXPECT_DOUBLE_EQ(bandwidth_of_series(3, 1.0), 9.0);
}

TEST(ParallelSeries, OutermostOffsetGrowsWithK) {
  EXPECT_DOUBLE_EQ(outermost_offset_km(1, 100.0), 0.0);
  const double k3 = outermost_offset_km(3, 100.0);
  const double k8 = outermost_offset_km(8, 100.0);
  EXPECT_GT(k3, 10.0);
  EXPECT_GT(k8, k3);
  // Even 8 series diverge by tens of km — negligible on long links,
  // exactly the paper's argument for 1 Tbps provisioning.
  EXPECT_LT(lateral_divergence_stretch(2700.0, k8), 1.01);
}

TEST(ParallelSeries, InputValidation) {
  EXPECT_THROW((void)min_series_separation_km(0.0), cisp::Error);
  EXPECT_THROW((void)lateral_divergence_stretch(-1.0, 0.0), cisp::Error);
  EXPECT_THROW((void)series_for_demand(1.0, 0.0), cisp::Error);
  EXPECT_THROW((void)bandwidth_of_series(0, 1.0), cisp::Error);
}

class HftRelayValidation : public ::testing::Test {
 protected:
  static const Scenario& scenario() {
    static const Scenario s = [] {
      ScenarioOptions options;
      options.fast = true;
      options.top_cities = 80;
      // Denser corridors approximate the purpose-built HFT relay route.
      options.towers.corridor_towers_per_100km = 8.0;
      return build_us_scenario(options);
    }();
    return s;
  }
};

TEST_F(HftRelayValidation, ChicagoToNewJerseyRelayShape) {
  // McKay Brothers operate Aurora IL -> Carteret NJ at ~1,183 km total
  // with ~20 hops, within 1% of c end to end (application layer).
  const geo::LatLon aurora_il{41.76, -88.32};
  const geo::LatLon carteret_nj{40.58, -74.23};
  const double geodesic = geo::distance_km(aurora_il, carteret_nj);
  EXPECT_NEAR(geodesic, 1160.0, 40.0);  // the real relay is ~1,183 km

  const auto links =
      engineer_links(scenario().tower_graph, {aurora_il, carteret_nj});
  ASSERT_TRUE(links[0].feasible);
  // Path within a few percent of the geodesic (the real relay: <1% with
  // hand-picked towers; our registry is synthetic and coarser).
  EXPECT_LT(links[0].mw_km / geodesic, 1.06);
  // Hop count in the right regime (real: ~20 hops of ~60 km).
  EXPECT_GE(links[0].tower_path.size(), 12u);
  EXPECT_LE(links[0].tower_path.size(), 45u);
}

TEST_F(HftRelayValidation, LakeMichiganHopIsFeasible) {
  // The paper cites a 96 km operating hop Chicago -> Galien MI crossing
  // Lake Michigan: our clearance model must admit ~96 km hops given tall
  // towers and flat terrain.
  const geo::LatLon chicago{41.88, -87.62};
  const geo::LatLon galien{41.81, -86.47};
  EXPECT_NEAR(geo::distance_km(chicago, galien), 96.0, 3.0);
  const auto profile =
      terrain::build_profile(*scenario().raster, chicago, galien, 1.0);
  // Mast heights in the real deployment are large (~150-250 m AGL
  // equivalents including buildings).
  const auto clearance = rf::evaluate_clearance(profile, 220.0, 180.0);
  EXPECT_TRUE(clearance.clear)
      << "margin " << clearance.margin_m << " m";
}

TEST_F(HftRelayValidation, RelayLatencyWithinOnePercentOfC) {
  const geo::LatLon aurora_il{41.76, -88.32};
  const geo::LatLon carteret_nj{40.58, -74.23};
  const auto links =
      engineer_links(scenario().tower_graph, {aurora_il, carteret_nj});
  ASSERT_TRUE(links[0].feasible);
  const double relay_ms = geo::c_latency_for_km(links[0].mw_km);
  const double c_ms = geo::c_latency_ms(aurora_il, carteret_nj);
  // Propagation-only latency within ~5% of c-latency (the real relay
  // achieves <1% with years of route refinement; §6.5 notes our kind of
  // estimate is accurate on cost/latency, not fully engineered routes).
  EXPECT_LT(relay_ms / c_ms, 1.06);
  // And the fiber alternative is ~2x: the HFT industry's whole reason.
  const infra::FiberNetwork fiber({aurora_il, carteret_nj});
  EXPECT_GT(fiber.latency_ms(0, 1) / c_ms, 1.5);
}

}  // namespace
}  // namespace cisp::design
