// Unit and property tests for src/rf: Fresnel/bulge formulas against the
// paper's closed forms, clearance behaviour on synthetic profiles, ITU rain
// attenuation, and the fade-margin outage model.

#include <gtest/gtest.h>

#include <cmath>

#include "rf/fresnel.hpp"
#include "rf/link_budget.hpp"
#include "rf/rain.hpp"
#include "terrain/profile.hpp"
#include "util/error.hpp"

namespace cisp::rf {
namespace {

TEST(Fresnel, MidpointMatchesPaperFormula) {
  // Paper: hFres ~= 8.7 m * sqrt(D_km) / sqrt(f_GHz).
  for (double d : {10.0, 50.0, 100.0}) {
    for (double f : {6.0, 11.0, 18.0}) {
      const double expected = 8.7 * std::sqrt(d) / std::sqrt(f);
      EXPECT_NEAR(fresnel_radius_m(d / 2, d / 2, f), expected,
                  expected * 0.01);
    }
  }
}

TEST(Fresnel, ZeroAtEndpoints) {
  EXPECT_DOUBLE_EQ(fresnel_radius_m(0.0, 50.0, 11.0), 0.0);
  EXPECT_DOUBLE_EQ(fresnel_radius_m(50.0, 0.0, 11.0), 0.0);
}

TEST(Fresnel, MaximalAtMidpointProperty) {
  const double d = 80.0;
  const double mid = fresnel_radius_m(d / 2, d / 2, 11.0);
  for (double d1 : {5.0, 20.0, 30.0, 50.0, 70.0}) {
    EXPECT_LE(fresnel_radius_m(d1, d - d1, 11.0), mid + 1e-12);
  }
}

TEST(EarthBulge, MidpointMatchesPaperFormula) {
  // Paper: hEarth ~= D_km^2 / (50 K) meters at the midpoint.
  for (double d : {20.0, 60.0, 100.0}) {
    const double expected = d * d / (50.0 * 1.3);
    EXPECT_NEAR(earth_bulge_m(d / 2, d / 2, 1.3), expected, expected * 0.03);
  }
}

TEST(EarthBulge, HundredKmHopNeedsTallTowers) {
  // At D = 100 km and K = 1.3 the bulge alone is ~150 m: the reason the
  // paper's maximum range sits near 100 km.
  const double bulge = earth_bulge_m(50.0, 50.0, 1.3);
  EXPECT_GT(bulge, 140.0);
  EXPECT_LT(bulge, 165.0);
}

terrain::PathProfile flat_profile(double length_km, double ground_m,
                                  std::size_t samples) {
  terrain::PathProfile p;
  p.total_km = length_km;
  for (std::size_t i = 0; i < samples; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(samples - 1);
    p.dist_km.push_back(f * length_km);
    p.ground_m.push_back(ground_m);
    p.clutter_m.push_back(0.0);
  }
  return p;
}

TEST(Clearance, ShortHopClearsTallHopBlocked) {
  // 30 km flat hop with 60 m towers: bulge ~17 m + fresnel ~12 m -> clear.
  const auto short_hop = flat_profile(30.0, 100.0, 121);
  EXPECT_TRUE(evaluate_clearance(short_hop, 60.0, 60.0).clear);
  // 100 km flat hop with 60 m towers: bulge ~150 m -> blocked.
  const auto long_hop = flat_profile(100.0, 100.0, 401);
  EXPECT_FALSE(evaluate_clearance(long_hop, 60.0, 60.0).clear);
  // Same hop with 200 m towers: clear.
  EXPECT_TRUE(evaluate_clearance(long_hop, 200.0, 200.0).clear);
}

TEST(Clearance, ObstacleBlocksAndMarginLocalizesIt) {
  auto profile = flat_profile(40.0, 100.0, 161);
  profile.ground_m[80] += 120.0;  // a hill at the midpoint
  const auto result = evaluate_clearance(profile, 80.0, 80.0);
  EXPECT_FALSE(result.clear);
  EXPECT_EQ(result.critical_sample, 80u);
  EXPECT_LT(result.margin_m, 0.0);
}

TEST(Clearance, ClutterCounts) {
  auto profile = flat_profile(40.0, 100.0, 161);
  const auto without = evaluate_clearance(profile, 55.0, 55.0);
  for (auto& c : profile.clutter_m) c = 25.0;  // forest canopy everywhere
  const auto with = evaluate_clearance(profile, 55.0, 55.0);
  EXPECT_NEAR(without.margin_m - with.margin_m, 25.0, 1e-9);
}

TEST(Clearance, FresnelFractionRelaxes) {
  auto profile = flat_profile(60.0, 100.0, 241);
  profile.ground_m[120] += 55.0;
  ClearanceParams strict;  // full Fresnel zone
  ClearanceParams relaxed;
  relaxed.fresnel_fraction = 0.0;
  const auto s = evaluate_clearance(profile, 90.0, 90.0, strict);
  const auto r = evaluate_clearance(profile, 90.0, 90.0, relaxed);
  EXPECT_GT(r.margin_m, s.margin_m);
}

TEST(Clearance, AsymmetricTowersInterpolate) {
  const auto profile = flat_profile(50.0, 100.0, 201);
  const auto low_high = evaluate_clearance(profile, 20.0, 200.0);
  const auto high_low = evaluate_clearance(profile, 200.0, 20.0);
  EXPECT_NEAR(low_high.margin_m, high_low.margin_m, 1e-9);
}

TEST(Clearance, RequiresTwoSamples) {
  terrain::PathProfile p;
  p.total_km = 1.0;
  p.dist_km = {0.0};
  p.ground_m = {10.0};
  p.clutter_m = {0.0};
  EXPECT_THROW((void)evaluate_clearance(p, 10.0, 10.0), cisp::Error);
}

TEST(Rain, CoefficientsMatchItuTableAnchors) {
  const auto c10 = rain_coefficients(10.0);
  EXPECT_NEAR(c10.k, 0.01217, 1e-5);
  EXPECT_NEAR(c10.alpha, 1.2571, 1e-4);
  const auto c15 = rain_coefficients(15.0);
  EXPECT_NEAR(c15.k, 0.04481, 1e-5);
}

TEST(Rain, InterpolatedCoefficientsMonotone) {
  double prev_k = 0.0;
  for (double f = 6.0; f <= 20.0; f += 0.5) {
    const auto c = rain_coefficients(f);
    EXPECT_GT(c.k, prev_k);
    prev_k = c.k;
    EXPECT_GT(c.alpha, 0.9);
    EXPECT_LT(c.alpha, 1.7);
  }
}

TEST(Rain, SpecificAttenuationGrowsWithRateAndFrequency) {
  EXPECT_DOUBLE_EQ(specific_attenuation_db_per_km(0.0, 11.0), 0.0);
  EXPECT_LT(specific_attenuation_db_per_km(10.0, 11.0),
            specific_attenuation_db_per_km(50.0, 11.0));
  EXPECT_LT(specific_attenuation_db_per_km(50.0, 6.0),
            specific_attenuation_db_per_km(50.0, 18.0));
}

TEST(Rain, PathReductionShrinksLongHops) {
  EXPECT_GT(path_reduction_factor(5.0, 50.0),
            path_reduction_factor(100.0, 50.0));
  EXPECT_LE(path_reduction_factor(100.0, 50.0), 1.0);
  EXPECT_GT(path_reduction_factor(100.0, 50.0), 0.0);
}

TEST(Rain, RejectsOutOfBandFrequency) {
  EXPECT_THROW((void)rain_coefficients(1.0), cisp::Error);
  EXPECT_THROW((void)specific_attenuation_db_per_km(10.0, 150.0),
               cisp::Error);
}

TEST(Rain, MillimeterWaveBandsAttenuateMuchHarder) {
  // E-band rain attenuation dwarfs 11 GHz: the physical reason the MMW
  // technology profile (§3.4) is limited to short hops.
  const double mw = specific_attenuation_db_per_km(25.0, 11.0);
  const double mmw = specific_attenuation_db_per_km(25.0, 73.0);
  EXPECT_GT(mmw, 10.0 * mw);
  const auto c30 = rain_coefficients(30.0);
  EXPECT_NEAR(c30.k, 0.2403, 1e-4);
}

TEST(LinkBudget, MarginShrinksWithLength) {
  EXPECT_GT(fade_margin_db(10.0), fade_margin_db(50.0));
  EXPECT_GT(fade_margin_db(50.0), fade_margin_db(100.0));
  EXPECT_GE(fade_margin_db(500.0), LinkBudgetParams{}.min_margin_db);
}

TEST(LinkBudget, LightRainNeverBreaksHeavyRainBreaksLongHops) {
  EXPECT_FALSE(hop_fails_in_rain(50.0, 5.0));   // drizzle
  EXPECT_FALSE(hop_fails_in_rain(100.0, 5.0));
  EXPECT_TRUE(hop_fails_in_rain(100.0, 120.0));  // violent thunderstorm
}

TEST(LinkBudget, OutageThresholdMonotoneInLength) {
  // Longer hops must fail at lower rain rates.
  const double r20 = outage_rain_rate_mm_h(20.0);
  const double r60 = outage_rain_rate_mm_h(60.0);
  const double r100 = outage_rain_rate_mm_h(100.0);
  EXPECT_GE(r20, r60);
  EXPECT_GE(r60, r100);
  // And the threshold is consistent with the failure predicate.
  EXPECT_TRUE(hop_fails_in_rain(100.0, r100 * 1.05));
  EXPECT_FALSE(hop_fails_in_rain(100.0, r100 * 0.95));
}

}  // namespace
}  // namespace cisp::rf
