// Unit and integration tests for src/infra: city databases, coalescing,
// traffic matrices, tower generation, and the synthetic fiber network's
// calibration against the paper's ~1.9x fiber latency inflation.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "geo/geodesic.hpp"
#include "infra/city.hpp"
#include "infra/databases.hpp"
#include "infra/fiber.hpp"
#include "infra/towers.hpp"
#include "terrain/regions.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace cisp::infra {
namespace {

TEST(Databases, UsCityCountAndSanity) {
  const auto& cities = us_cities();
  EXPECT_GE(cities.size(), 195u);
  EXPECT_LE(cities.size(), 210u);
  // Sorted roughly by population: first is NYC.
  EXPECT_EQ(cities.front().name, "New York NY");
  EXPECT_GT(cities.front().population, 8000000u);
  const auto region = terrain::contiguous_us();
  for (const auto& c : cities) {
    EXPECT_TRUE(region.box.contains(c.pos)) << c.name;
    EXPECT_GT(c.population, 100000u) << c.name;
  }
}

TEST(Databases, UsCitiesDescendingPopulation) {
  const auto& cities = us_cities();
  for (std::size_t i = 1; i < cities.size(); ++i) {
    EXPECT_GE(cities[i - 1].population, cities[i].population)
        << cities[i].name;
  }
}

TEST(Databases, UsCityNamesUnique) {
  const auto& cities = us_cities();
  std::set<std::string> names;
  for (const auto& c : cities) names.insert(c.name);
  EXPECT_EQ(names.size(), cities.size());
}

TEST(Databases, EuCitiesSanity) {
  const auto& cities = eu_cities();
  EXPECT_GE(cities.size(), 100u);
  const auto region = terrain::europe();
  for (const auto& c : cities) {
    EXPECT_TRUE(region.box.contains(c.pos)) << c.name;
    EXPECT_GE(c.population, 295000u) << c.name;
  }
  EXPECT_EQ(cities.front().name, "London");
}

TEST(Databases, SixGoogleDatacenters) {
  const auto& dcs = google_us_datacenters();
  ASSERT_EQ(dcs.size(), 6u);
  const auto region = terrain::contiguous_us();
  for (const auto& dc : dcs) EXPECT_TRUE(region.box.contains(dc.pos));
}

TEST(Coalesce, PaperYieldsRoughly120UsCenters) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  // Paper: 200 cities coalesce into ~120 population centers.
  EXPECT_GE(centers.size(), 100u);
  EXPECT_LE(centers.size(), 140u);
  // Total population is conserved.
  std::uint64_t total_in = 0;
  for (const auto& c : us_cities()) total_in += c.population;
  std::uint64_t total_out = 0;
  for (const auto& c : centers) total_out += c.population;
  EXPECT_EQ(total_in, total_out);
}

TEST(Coalesce, MergesKnownSuburbPairs) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  // Dallas, Fort Worth, Arlington, Plano must be one center; same for
  // Minneapolis / St. Paul.
  std::unordered_map<std::string, int> center_of;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    for (const std::size_t m : centers[i].member_cities) {
      center_of[us_cities()[m].name] = static_cast<int>(i);
    }
  }
  EXPECT_EQ(center_of.at("Dallas TX"), center_of.at("Fort Worth TX"));
  EXPECT_EQ(center_of.at("Dallas TX"), center_of.at("Plano TX"));
  EXPECT_EQ(center_of.at("Minneapolis MN"), center_of.at("St. Paul MN"));
  // And LA–San Diego stay separate (~180 km apart).
  EXPECT_NE(center_of.at("Los Angeles CA"), center_of.at("San Diego CA"));
}

TEST(Coalesce, ZeroRadiusKeepsAllCities) {
  const auto centers = coalesce_cities(us_cities(), 0.0);
  EXPECT_EQ(centers.size(), us_cities().size());
}

TEST(Coalesce, CentersSortedByPopulation) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  for (std::size_t i = 1; i < centers.size(); ++i) {
    EXPECT_GE(centers[i - 1].population, centers[i].population);
  }
  EXPECT_EQ(centers.front().name, "New York NY");
}

TEST(TopCities, TruncatesInOrder) {
  const auto top = top_cities(us_cities(), 10);
  ASSERT_EQ(top.size(), 10u);
  EXPECT_EQ(top[0].name, "New York NY");
  EXPECT_EQ(top[1].name, "Los Angeles CA");
}

TEST(TrafficMatrix, NormalizedSymmetricZeroDiagonal) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  const auto h = population_product_traffic(centers);
  double max_entry = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_DOUBLE_EQ(h[i][i], 0.0);
    for (std::size_t j = 0; j < h.size(); ++j) {
      EXPECT_DOUBLE_EQ(h[i][j], h[j][i]);
      EXPECT_GE(h[i][j], 0.0);
      EXPECT_LE(h[i][j], 1.0);
      max_entry = std::max(max_entry, h[i][j]);
    }
  }
  EXPECT_DOUBLE_EQ(max_entry, 1.0);
}

TEST(Towers, DeterministicAndInBox) {
  const auto region = terrain::contiguous_us();
  TowerGenParams params;
  params.rural_towers = 500;  // keep the test fast
  const auto a = generate_towers(region, top_cities(us_cities(), 30), params);
  const auto b = generate_towers(region, top_cities(us_cities(), 30), params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pos, b[i].pos);
    EXPECT_TRUE(region.box.contains(a[i].pos));
    EXPECT_GE(a[i].height_m, params.min_height_m);
    EXPECT_LE(a[i].height_m, params.max_height_m);
  }
}

TEST(Towers, FullUsRegistryLandsNearPaperScale) {
  const auto region = terrain::contiguous_us();
  const auto towers = generate_towers(region, us_cities());
  // Paper culls to 12,080 towers; we target the same order of magnitude.
  EXPECT_GE(towers.size(), 9000u);
  EXPECT_LE(towers.size(), 16000u);
}

TEST(Towers, DensityCapHolds) {
  const auto region = terrain::contiguous_us();
  TowerGenParams params;
  const auto towers = generate_towers(region, us_cities(), params);
  std::unordered_map<std::int64_t, std::size_t> cells;
  for (const auto& t : towers) {
    const auto row =
        static_cast<std::int64_t>(std::floor(t.pos.lat_deg / params.cell_deg));
    const auto col =
        static_cast<std::int64_t>(std::floor(t.pos.lon_deg / params.cell_deg));
    ++cells[row * 100000 + col];
  }
  for (const auto& [key, count] : cells) {
    EXPECT_LE(count, params.density_cap_per_cell);
  }
}

TEST(Towers, MetroDenserThanMountains) {
  const auto region = terrain::contiguous_us();
  const auto towers = generate_towers(region, us_cities());
  const geo::LatLon nyc{40.71, -74.01};
  const geo::LatLon wyoming_rockies{43.0, -109.5};
  std::size_t near_nyc = 0;
  std::size_t near_rockies = 0;
  for (const auto& t : towers) {
    if (geo::distance_km(t.pos, nyc) < 100.0) ++near_nyc;
    if (geo::distance_km(t.pos, wyoming_rockies) < 100.0) ++near_rockies;
  }
  EXPECT_GT(near_nyc, near_rockies * 2);
}

TEST(Fiber, CalibratedToPaperInflation) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  std::vector<geo::LatLon> sites;
  for (const auto& c : centers) sites.push_back(c.pos);
  const FiberNetwork fiber(sites);
  // Latency stretch vs c-latency across all pairs; the paper's
  // latency-optimal fiber figure is 1.93x (InterTubes + 1.5 refraction).
  Samples stretch;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const double geodesic = geo::distance_km(sites[i], sites[j]);
      if (geodesic < 100.0) continue;  // short pairs are noisy, as in paper
      stretch.add(fiber.latency_ms(i, j) / geo::c_latency_for_km(geodesic));
    }
  }
  EXPECT_GT(stretch.mean(), 1.75);
  EXPECT_LT(stretch.mean(), 2.15);
  // No pair can beat straight-line fiber physics.
  EXPECT_GE(stretch.min(), 1.5);
}

TEST(Fiber, MetricProperties) {
  const auto centers = coalesce_cities(us_cities(), 50.0);
  std::vector<geo::LatLon> sites;
  for (const auto& c : centers) sites.push_back(c.pos);
  const FiberNetwork fiber(sites);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(fiber.distance_km(i, j), fiber.distance_km(j, i));
      if (i == j) {
        EXPECT_DOUBLE_EQ(fiber.distance_km(i, j), 0.0);
      }
    }
  }
  // Triangle inequality (shortest paths in a graph are a metric).
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      for (std::size_t k = 0; k < 15; ++k) {
        EXPECT_LE(fiber.distance_km(i, k),
                  fiber.distance_km(i, j) + fiber.distance_km(j, k) + 1e-9);
      }
    }
  }
}

TEST(Fiber, RejectsDegenerateInput) {
  EXPECT_THROW(FiberNetwork({{40.0, -100.0}}), Error);
}

TEST(Fiber, DeterministicForSeed) {
  std::vector<geo::LatLon> sites;
  for (const auto& c : top_cities(us_cities(), 40)) sites.push_back(c.pos);
  const FiberNetwork a(sites);
  const FiberNetwork b(sites);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.distance_km(0, i), b.distance_km(0, i));
  }
}

}  // namespace
}  // namespace cisp::infra
