#pragma once
// The year-long weather resilience study (§6.1, Fig. 7): one random
// 30-minute interval per day; links that rain takes out are removed, all
// traffic reroutes onto the shortest surviving MW+fiber paths, and per-pair
// stretch statistics are accumulated across the year.

#include "design/scenario.hpp"
#include "util/stats.hpp"
#include "weather/outage.hpp"

namespace cisp::weather {

struct StudyParams {
  std::uint64_t seed = 365;
  int days = 365;
  /// Worker threads for the per-day parallel sweep (0 = all hardware
  /// threads). Results are bit-identical for every value: each day draws
  /// from its own splitmix-derived seed and days merge in day order.
  std::size_t threads = 0;
};

struct StudyResult {
  /// Distributions ACROSS city pairs of the per-pair statistic over the
  /// year (the four CDFs of Fig. 7).
  cisp::Samples best_stretch;
  cisp::Samples p99_stretch;
  cisp::Samples worst_stretch;
  cisp::Samples fiber_stretch;

  /// Fraction of built links down, averaged over intervals.
  double mean_links_down_fraction = 0.0;
  /// Days on which at least one link was down.
  int days_with_any_outage = 0;
};

/// Runs the study for a designed topology. `problem` must be the instance
/// the topology was designed on.
[[nodiscard]] StudyResult run_weather_study(const design::SiteProblem& problem,
                                            const design::Topology& topology,
                                            const std::vector<infra::Tower>& towers,
                                            const RainField& rain,
                                            const StudyParams& params = {});

}  // namespace cisp::weather
