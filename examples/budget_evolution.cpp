// Budget evolution "animation" (the paper's online supplement [20]): how
// the hybrid network evolves from mostly-fiber to mostly-MW as the tower
// budget grows. One map frame per budget step, rendered into notes.
//
// Registered experiment: the per-budget design solves are independent, so
// the budget axis runs through engine::run_sweep.

#include "bench_common.hpp"

namespace {
using namespace cisp;

struct Frame {
  std::size_t links = 0;
  double stretch = 0.0;
  double fiber_stretch = 0.0;
  double accelerated_pct = 0.0;
  std::string map;
};

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  // Honours the driver's fast/full contract (the old binary defaulted to
  // coarse mode; pass --fast for the quick animation, omit it for the
  // full-fidelity frames).
  const auto scenario = bench::us_scenario(ctx);
  const std::size_t centers =
      bench::pick(ctx, std::size_t{0}, std::size_t{40});

  const std::vector<double> budgets = {250.0, 1000.0, 3000.0, 8000.0};
  engine::Grid grid;
  grid.axis("budget", budgets);
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        const auto problem = design::city_city_problem(
            scenario, point.value("budget"), centers);
        const auto topo = design::solve_greedy(problem.input);
        const auto fiber_only =
            design::StretchEvaluator::evaluate(problem.input, {});

        // Share of traffic whose best path uses at least one MW link.
        design::StretchEvaluator eval(problem.input);
        for (const std::size_t l : topo.links) eval.add_link(l);
        double mw_traffic = 0.0;
        double total_traffic = 0.0;
        const auto& input = problem.input;
        for (std::size_t s = 0; s < input.site_count(); ++s) {
          for (std::size_t t = 0; t < input.site_count(); ++t) {
            if (s == t) continue;
            total_traffic += input.traffic(s, t);
            if (eval.effective_km(s, t) <
                input.fiber_effective_km(s, t) - 1e-9) {
              mw_traffic += input.traffic(s, t);
            }
          }
        }
        Frame frame;
        frame.links = topo.links.size();
        frame.stretch = topo.mean_stretch;
        frame.fiber_stretch = fiber_only.mean_stretch;
        frame.accelerated_pct = mw_traffic / total_traffic * 100.0;
        frame.map = bench::topology_map_note(
            scenario, problem, topo, 100, 26,
            "budget " + fmt(point.value("budget"), 0) + " towers:");
        return frame;
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  auto& table = results.add_table(
      "budget_evolution", "network evolution with budget (paper animation [20])",
      {"budget", "mw_links", "stretch", "fiber_only_stretch",
       "traffic_accelerated_%"});
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const Frame& frame = sweep.at(b);
    table.row({engine::Value::real(budgets[b], 0), frame.links,
               engine::Value::real(frame.stretch, 3),
               engine::Value::real(frame.fiber_stretch, 3),
               engine::Value::real(frame.accelerated_pct, 0)});
    results.note(sweep.at(b).map);
  }
  results.note(
      "As the budget grows the MW mesh thickens and the stretch drops "
      "toward ~1.05x\n(the paper's animation shows the same mostly-fiber -> "
      "mostly-MW evolution).");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "budget_evolution",
     .description = "Budget evolution maps: mostly-fiber to mostly-MW",
     .tags = {"example", "design", "sweep"},
     .params = {}},
    run};

}  // namespace
