// Unit and property tests for src/terrain: noise determinism/continuity,
// synthetic terrain shape (ridges where geography says so), raster fidelity,
// and profile extraction.

#include <gtest/gtest.h>

#include <cmath>

#include "geo/geodesic.hpp"
#include "terrain/heightfield.hpp"
#include "terrain/noise.hpp"
#include "terrain/profile.hpp"
#include "terrain/regions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::terrain {
namespace {

TEST(ValueNoise, DeterministicForSeed) {
  ValueNoise a(123);
  ValueNoise b(123);
  ValueNoise c(124);
  EXPECT_DOUBLE_EQ(a.at(1.5, 2.5), b.at(1.5, 2.5));
  EXPECT_NE(a.at(1.5, 2.5), c.at(1.5, 2.5));
}

TEST(ValueNoise, BoundedOutput) {
  ValueNoise n(7);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double v = n.at(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0));
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ValueNoise, ContinuityProperty) {
  // |n(x+eps) - n(x)| must vanish with eps (C1 interpolation).
  ValueNoise n(11);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    const double y = rng.uniform(-50.0, 50.0);
    EXPECT_NEAR(n.at(x, y), n.at(x + 1e-6, y), 1e-4);
    EXPECT_NEAR(n.at(x, y), n.at(x, y + 1e-6), 1e-4);
  }
}

TEST(Fbm, BoundedAndDeterministic) {
  Fbm f({.seed = 42, .octaves = 5, .frequency = 1.0});
  Fbm g({.seed = 42, .octaves = 5, .frequency = 1.0});
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-30.0, 30.0);
    const double y = rng.uniform(-30.0, 30.0);
    const double v = f.at(x, y);
    EXPECT_DOUBLE_EQ(v, g.at(x, y));
    EXPECT_GE(v, -1.001);
    EXPECT_LE(v, 1.001);
  }
}

TEST(Fbm, RejectsBadParams) {
  EXPECT_THROW(Fbm({.seed = 1, .octaves = 0}), Error);
  EXPECT_THROW(Fbm({.seed = 1, .octaves = 3, .frequency = 0.0}), Error);
}

TEST(SyntheticTerrain, RockiesHigherThanGreatPlains) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  // Colorado Rockies vs central Kansas.
  const double rockies = terrain.elevation_m({39.5, -106.0});
  const double plains = terrain.elevation_m({38.5, -98.0});
  EXPECT_GT(rockies, 1500.0);
  EXPECT_LT(plains, 700.0);
  EXPECT_GT(rockies, plains + 800.0);
}

TEST(SyntheticTerrain, AppalachiansModestButPresent) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  const double appalachia = terrain.elevation_m({36.5, -81.7});
  const double coastal_plain = terrain.elevation_m({35.0, -78.0});
  EXPECT_GT(appalachia, coastal_plain);
  EXPECT_GT(appalachia, 500.0);
}

TEST(SyntheticTerrain, AlpsDominateEurope) {
  const auto region = europe();
  const SyntheticTerrain terrain = region.make_terrain();
  const double alps = terrain.elevation_m({46.5, 9.5});
  const double po_valley = terrain.elevation_m({45.1, 10.0});
  const double north_german_plain = terrain.elevation_m({52.5, 10.0});
  EXPECT_GT(alps, 1500.0);
  EXPECT_GT(alps, north_german_plain + 1000.0);
  EXPECT_LT(north_german_plain, 600.0);
  (void)po_valley;
}

TEST(SyntheticTerrain, NonNegativeEverywhereProperty) {
  const auto region = contiguous_us();
  const SyntheticTerrain terrain = region.make_terrain();
  Rng rng(21);
  for (int i = 0; i < 5000; ++i) {
    const geo::LatLon p{rng.uniform(region.box.lat_min, region.box.lat_max),
                        rng.uniform(region.box.lon_min, region.box.lon_max)};
    EXPECT_GE(terrain.elevation_m(p), 0.0);
    EXPECT_GE(terrain.clutter_m(p), 0.0);
    EXPECT_LE(terrain.clutter_m(p), 24.0 + 1e-9);
  }
}

TEST(Flatland, IsFlat) {
  const auto region = flatland({.lat_min = 30, .lat_max = 40,
                                .lon_min = -100, .lon_max = -90});
  const SyntheticTerrain terrain = region.make_terrain();
  EXPECT_DOUBLE_EQ(terrain.elevation_m({35.0, -95.0}), 100.0);
  EXPECT_DOUBLE_EQ(terrain.clutter_m({35.0, -95.0}), 0.0);
}

TEST(RasterTerrain, MatchesSourceWithinTolerance) {
  const auto region = contiguous_us();
  const SyntheticTerrain source = region.make_terrain();
  const BoundingBox patch{.lat_min = 38.0, .lat_max = 41.0,
                          .lon_min = -106.0, .lon_max = -102.0};
  const RasterTerrain raster(source, patch, 0.01);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const geo::LatLon p{rng.uniform(38.05, 40.95), rng.uniform(-105.95, -102.05)};
    // 0.01 deg cells ~1.1 km; synthetic terrain slope is bounded, so the
    // bilinear error stays small relative to mountain heights.
    EXPECT_NEAR(raster.elevation_m(p), source.elevation_m(p), 60.0);
  }
}

TEST(RasterTerrain, ClampsOutsideBox) {
  const auto region = flatland({.lat_min = 30, .lat_max = 31,
                                .lon_min = -100, .lon_max = -99});
  const SyntheticTerrain source = region.make_terrain();
  const RasterTerrain raster(source, region.box, 0.05);
  EXPECT_DOUBLE_EQ(raster.elevation_m({29.0, -100.5}), 100.0);
  EXPECT_DOUBLE_EQ(raster.elevation_m({35.0, -50.0}), 100.0);
}

TEST(RasterTerrain, RejectsDegenerateBox) {
  const auto region = contiguous_us();
  const SyntheticTerrain source = region.make_terrain();
  EXPECT_THROW(RasterTerrain(source,
                             {.lat_min = 40, .lat_max = 40, .lon_min = -100,
                              .lon_max = -90},
                             0.01),
               Error);
}

TEST(Profile, EndpointsAndMonotoneDistance) {
  // The US terrain rasterized at its sweep resolution, but only over a
  // box around the hop: the profile samples nothing outside it.
  const auto region = contiguous_us();
  const RasterTerrain terrain(region.make_terrain(),
                              {.lat_min = 41.0, .lat_max = 42.7,
                               .lon_min = -88.5, .lon_max = -85.5},
                              region.raster_cell_deg);
  const geo::LatLon a{41.88, -87.63};  // Chicago
  const geo::LatLon b{41.81, -86.47};  // Galien, MI (the paper's 96 km hop)
  const auto profile = build_profile(terrain, a, b, 0.5);
  ASSERT_GE(profile.size(), 2u);
  EXPECT_NEAR(profile.total_km, geo::distance_km(a, b), 1e-9);
  EXPECT_DOUBLE_EQ(profile.dist_km.front(), 0.0);
  EXPECT_NEAR(profile.dist_km.back(), profile.total_km, 1e-9);
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_GT(profile.dist_km[i], profile.dist_km[i - 1]);
  }
  EXPECT_EQ(profile.ground_m.size(), profile.clutter_m.size());
}

TEST(Profile, StepControlsResolution) {
  const auto region = flatland({.lat_min = 30, .lat_max = 40,
                                .lon_min = -100, .lon_max = -90});
  const SyntheticTerrain terrain = region.make_terrain();
  const geo::LatLon a{35.0, -98.0};
  const geo::LatLon b{35.0, -97.0};
  const auto coarse = build_profile(terrain, a, b, 10.0);
  const auto fine = build_profile(terrain, a, b, 0.1);
  EXPECT_LT(coarse.size(), fine.size());
  EXPECT_THROW(build_profile(terrain, a, b, -1.0), Error);
}

}  // namespace
}  // namespace cisp::terrain
