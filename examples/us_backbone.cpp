// Full US backbone walkthrough: the paper's flagship scenario (§4) with
// parameter knobs, reporting every pipeline stage. Registered as the
// `us_backbone` experiment; the old positional CLI arguments became
// declared parameters:
//
//   cisp_experiments run us_backbone --set budget_towers=3000
//       --set max_range_km=100 --set aggregate_gbps=100 [--fast]

#include <algorithm>

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const double budget = ctx.params.real("budget_towers", 3000.0);
  const double range = ctx.params.real("max_range_km", 100.0);
  const double aggregate = ctx.params.real("aggregate_gbps", 100.0);

  design::ScenarioOptions options;
  options.hop.max_range_km = range;
  const auto scenario = bench::us_scenario(ctx, options);

  engine::ResultSet results;
  auto& stages = results.add_table("us_backbone_stages",
                                   "US backbone pipeline stages",
                                   {"stage", "detail"});
  stages.row({"0: substrates",
              std::to_string(scenario.tower_graph.towers.size()) +
                  " towers, " +
                  std::to_string(scenario.tower_graph.feasible_hops) +
                  " feasible hops, " +
                  std::to_string(scenario.centers.size()) +
                  " population centers"});

  const auto problem = design::city_city_problem(scenario, budget);
  std::size_t feasible = 0;
  for (const auto& l : problem.links) feasible += l.feasible;
  stages.row({"1: link engineering",
              std::to_string(feasible) + "/" +
                  std::to_string(problem.links.size()) +
                  " site-to-site MW links feasible (" +
                  std::to_string(problem.input.candidates().size()) +
                  " candidates after pruning)"});

  const auto fiber_only = design::StretchEvaluator::evaluate(problem.input, {});
  const auto topo = design::solve_greedy(problem.input);
  stages.row({"2: topology",
              std::to_string(topo.links.size()) + " links, " +
                  fmt(topo.cost_towers, 0) + " towers, mean stretch " +
                  fmt(topo.mean_stretch, 3) + " (fiber only: " +
                  fmt(fiber_only.mean_stretch, 3) + ")"});

  design::CapacityParams cap;
  cap.aggregate_gbps = aggregate;
  const auto plan = design::plan_capacity(problem.input, topo, problem.links,
                                          scenario.tower_graph.towers, cap);
  const auto cost = design::cost_of(plan);
  stages.row({"3: capacity",
              std::to_string(plan.base_hops) + " hops (" +
                  std::to_string(plan.installed_hop_series) +
                  " radio installs), " + std::to_string(plan.new_towers) +
                  " new towers, " + fmt_money(cost.usd_per_gb) +
                  "/GB over 5 years"});

  // The ten busiest links, Fig. 3 style.
  auto& links = results.add_table(
      "us_backbone_links", "busiest MW links",
      {"from", "to", "mw_km", "demand_gbps", "series"});
  auto sorted = plan.links;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.demand_gbps > b.demand_gbps;
  });
  for (std::size_t i = 0; i < std::min<std::size_t>(10, sorted.size()); ++i) {
    const auto& link = sorted[i];
    const auto& cand = problem.input.candidates()[link.candidate_index];
    links.row({problem.names[link.site_a], problem.names[link.site_b],
               engine::Value::real(cand.mw_km, 0),
               engine::Value::real(link.demand_gbps, 2),
               static_cast<std::int64_t>(link.series)});
  }
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "us_backbone",
     .description = "US backbone walkthrough with stage-by-stage reporting",
     .tags = {"example", "design", "capacity"},
     .params = {{"budget_towers", "3000", "tower budget"},
                {"max_range_km", "100", "maximum MW hop range"},
                {"aggregate_gbps", "100", "provisioned throughput"}}},
    run};

}  // namespace
