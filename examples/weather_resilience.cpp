// Weather resilience walkthrough (§6.1): design a network, simulate a
// synthetic year of storms, and report how much of the latency advantage
// survives the weather. A compact version of the Fig. 7 experiment with
// extra per-day outage reporting. Registered as `weather_resilience`.

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  design::ScenarioOptions options;
  options.fast = true;
  options.top_cities = 60;
  const auto scenario = bench::us_scenario(ctx, options);
  const auto problem = design::city_city_problem(
      scenario, ctx.params.real("budget_towers", 800.0), 25);
  const auto topo = design::solve_greedy(problem.input);

  engine::ResultSet results;
  results.note("designed: " + std::to_string(topo.links.size()) +
               " MW links, stretch " + fmt(topo.mean_stretch, 3));

  const weather::RainField rain(scenario.region.box);
  results.note("synthetic year: " + std::to_string(rain.cell_count()) +
               " storm cells");

  // Sample a week of July (convective season) at 3-hour steps and report
  // link outages as they happen. Each built link's engineered tower path
  // is found and turned into hops once, before the week starts.
  struct BuiltLink {
    const design::SiteLink* link;
    weather::HopList hops;
  };
  std::vector<BuiltLink> built;
  for (const std::size_t cand : topo.links) {
    const auto& c = problem.input.candidates()[cand];
    for (const auto& link : problem.links) {
      if (link.feasible && link.site_a == c.site_a &&
          link.site_b == c.site_b) {
        built.push_back(
            {&link, weather::tower_hops(link, scenario.tower_graph.towers)});
      }
    }
  }
  auto& log = results.add_table("weather_resilience_outages",
                                "July outage log (3-hour sampling)",
                                {"day", "link", "state"});
  int events = 0;
  for (double t = 190.0 * weather::kDayS;
       t < 197.0 * weather::kDayS && events < 12; t += 3.0 * 3600.0) {
    for (const BuiltLink& b : built) {
      if (weather::link_capacity_factor(b.hops, rain, t) == 0.0) {
        log.row({engine::Value::real(t / weather::kDayS, 1),
                 problem.names[b.link->site_a] + " <-> " +
                     problem.names[b.link->site_b],
                 "DOWN"});
        ++events;
      }
    }
  }
  if (events == 0) {
    results.note("(no outages in the sampled week)");
  }

  // Year-long study: the day grid runs through engine::run_sweep inside
  // run_weather_study.
  weather::StudyParams params;
  params.days = ctx.params.integer("days", 365);
  params.threads = ctx.threads;
  const auto result = weather::run_weather_study(
      problem, topo, scenario.tower_graph.towers, rain, params);

  auto& summary = results.add_table(
      "weather_resilience_summary",
      "year-long study (" + std::to_string(params.days) + " intervals)",
      {"metric", "value"});
  summary.row({"median best-day stretch",
               engine::Value::real(result.best_stretch.median(), 3)});
  summary.row({"median 99th-pctile day",
               engine::Value::real(result.p99_stretch.median(), 3)});
  summary.row({"median worst-day stretch",
               engine::Value::real(result.worst_stretch.median(), 3)});
  summary.row({"median fiber stretch",
               engine::Value::real(result.fiber_stretch.median(), 3)});
  summary.row({"worst day beats fiber by",
               fmt(result.fiber_stretch.median() /
                       result.worst_stretch.median(),
                   2) +
                   "x (paper: 1.7x)"});
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "weather_resilience",
     .description = "Weather resilience walkthrough (§6.1 compact)",
     .tags = {"example", "weather", "sweep"},
     .params = {{"budget_towers", "800", "tower budget"},
                {"days", "365", "days simulated in the study"}}},
    run};

}  // namespace
