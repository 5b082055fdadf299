#include "weather/study.hpp"

#include <algorithm>
#include <unordered_map>

#include "engine/collector.hpp"
#include "engine/sweep.hpp"
#include "util/rng.hpp"

namespace cisp::weather {

namespace {

/// Scalar per-day outcome (pair stretches go into per-day slots).
struct DayOutcome {
  double down_fraction = 0.0;
  bool any_outage = false;
};

}  // namespace

StudyResult run_weather_study(const design::SiteProblem& problem,
                              const design::Topology& topology,
                              const std::vector<infra::Tower>& towers,
                              const RainField& rain,
                              const StudyParams& params) {
  CISP_REQUIRE(params.days >= 1 && params.days <= 365, "days in [1, 365]");
  const auto& input = problem.input;
  const std::size_t n = input.site_count();

  // Map built candidates to their engineered site links (tower paths).
  std::unordered_map<std::uint64_t, const design::SiteLink*> by_pair;
  for (const auto& l : problem.links) {
    if (!l.feasible) continue;
    by_pair[(static_cast<std::uint64_t>(std::min(l.site_a, l.site_b)) << 32) |
            std::max(l.site_a, l.site_b)] = &l;
  }
  // Each built link's hops, built once for the whole year.
  std::vector<HopList> hops;
  hops.reserve(topology.links.size());
  for (const std::size_t cand : topology.links) {
    const auto& c = input.candidates()[cand];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(c.site_a, c.site_b)) << 32) |
        std::max(c.site_a, c.site_b);
    CISP_REQUIRE(by_pair.count(key) > 0, "built link without tower path");
    hops.push_back(tower_hops(*by_pair[key], towers));
  }

  // The 365 days are independent given their seeds, so they run as a
  // parallel sweep: one task per day, each with a splitmix-derived seed, so
  // the result is bit-identical for any thread count.
  engine::Grid grid;
  grid.index_axis("day", static_cast<std::size_t>(params.days))
      .base_seed(params.seed);
  const std::size_t num_pairs = n * (n - 1) / 2;

  // One contiguous row of pair stretches per day: tasks write only their
  // own day's slot, so the collector needs no locks, and the cross-day
  // merge below walks slots in day order.
  engine::SlotCollector<std::vector<double>> pair_rows(grid.size());

  auto run_day = [&](const engine::Point& point) {
    Rng rng(point.seed());
    const double day = point.value("day");
    const double t = day * kDayS + rng.uniform() * (kDayS - 1800.0);
    DayOutcome outcome;
    design::StretchEvaluator evaluator(input);
    std::size_t down = 0;
    for (std::size_t l = 0; l < hops.size(); ++l) {
      if (link_capacity_factor(hops[l], rain, t) == 0.0) {
        ++down;
      } else {
        evaluator.add_link(topology.links[l]);
      }
    }
    outcome.down_fraction =
        hops.empty() ? 0.0
                     : static_cast<double>(down) /
                           static_cast<double>(hops.size());
    outcome.any_outage = down > 0;
    auto& row = pair_rows.slot(point.task_index());
    row.reserve(num_pairs);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t v = s + 1; v < n; ++v) {
        row.push_back(evaluator.pair_stretch(s, v));
      }
    }
    return outcome;
  };

  engine::SweepOptions sweep_options;
  sweep_options.threads = params.threads;
  const auto days = engine::run_sweep(grid, run_day, sweep_options);

  // Merge in day order (task-index order), never completion order.
  StudyResult result;
  double down_fraction_acc = 0.0;
  for (const auto& outcome : days.per_task) {
    down_fraction_acc += outcome.down_fraction;
    if (outcome.any_outage) ++result.days_with_any_outage;
  }
  result.mean_links_down_fraction =
      down_fraction_acc / static_cast<double>(params.days);

  design::StretchEvaluator fiber_only(input);
  std::size_t pair = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t v = s + 1; v < n; ++v) {
      cisp::Samples samples;
      for (std::size_t day = 0; day < pair_rows.size(); ++day) {
        samples.add(pair_rows.slot(day)[pair]);
      }
      result.best_stretch.add(samples.min());
      result.p99_stretch.add(samples.percentile(99));
      result.worst_stretch.add(samples.max());
      result.fiber_stretch.add(fiber_only.pair_stretch(s, v));
      ++pair;
    }
  }
  return result;
}

}  // namespace cisp::weather
