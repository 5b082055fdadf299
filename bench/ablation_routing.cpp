// Ablation (§5 "Routing schemes"): shortest-path vs min-max-utilization vs
// throughput-optimal routing on a designed cISP. The paper reports that
// the alternative schemes absorb higher loads with near-zero loss but pay
// ~10% extra latency on average.
//
// Registered experiment: both stages execute through engine::run_sweep —
// the offline route properties fan out over the scheme axis, and the
// packet-level stage over the load x scheme grid.

#include "bench_common.hpp"

namespace {
using namespace cisp;

struct PropsRow {
  double mean_path_latency_s = 0.0;
  double max_link_utilization = 0.0;
};

struct Cell {
  double loss_pct = 0.0;
  double delay_ms = 0.0;
};

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto scenario = bench::us_scenario(ctx);
  const auto backend = bench::traffic_backend(ctx);
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  const auto problem = design::city_city_problem(
      scenario, ctx.params.real("budget", 2000.0), centers);
  const auto topo = design::solve_greedy(problem.input);
  design::CapacityParams cap;
  cap.aggregate_gbps = 100.0;
  const auto plan = design::plan_capacity(problem.input, topo, problem.links,
                                          scenario.tower_graph.towers, cap);

  net::BuildOptions build;
  build.rate_scale = bench::pick(ctx, 0.05, 0.02);
  const double sim_s = bench::pick(ctx, 0.3, 0.1);

  std::vector<infra::PopulationCenter> pcs = scenario.centers;
  if (pcs.size() > centers) pcs.resize(centers);
  const auto traffic = infra::population_product_traffic(pcs);

  const std::vector<net::RoutingScheme> schemes = {
      net::RoutingScheme::ShortestPath,
      net::RoutingScheme::MinMaxUtilization,
      net::RoutingScheme::ThroughputOptimal};

  // Static route properties at design load: one task per scheme. Routes
  // are computed over the backend-neutral view — no packet Network needed.
  engine::Grid props_grid;
  props_grid.index_axis("scheme", schemes.size());
  const auto props_sweep = engine::run_sweep(
      props_grid,
      [&](const engine::Point& point) {
        const auto topo_view =
            net::view_from_plan(net::plan_links(problem.input, plan, build));
        const auto demands =
            net::flow::DemandMatrix::from_traffic(
                traffic, cap.aggregate_gbps, build.rate_scale)
                .to_demands();
        const auto result = net::compute_routes(
            topo_view.view, demands, schemes[point.index("scheme")]);
        return PropsRow{result.mean_path_latency_s,
                        result.max_link_utilization};
      },
      {.threads = ctx.threads});

  engine::ResultSet results;
  const double sp_latency = props_sweep.at(0).mean_path_latency_s;
  auto& props = results.add_table(
      "ablation_routing_props",
      "routing scheme properties (offline, design load)",
      {"scheme", "mean_path_latency_ms", "latency_vs_SP_%",
       "predicted_max_util"});
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const PropsRow& row = props_sweep.at(s);
    props.row(
        {net::to_string(schemes[s]),
         engine::Value::real(row.mean_path_latency_s * 1000.0, 3),
         engine::Value::real(
             (row.mean_path_latency_s / sp_latency - 1.0) * 100.0, 1),
         engine::Value::real(row.max_link_utilization, 2)});
  }

  // Traffic-level loss/delay at increasing loads: load x scheme grid,
  // each cell one run through the TrafficModel seam.
  std::vector<double> loads;
  for (int load = 40; load <= 120; load += 20) {
    loads.push_back(static_cast<double>(load));
  }
  engine::Grid grid;
  grid.axis("load", loads).index_axis("scheme", schemes.size());
  const auto sweep = engine::run_sweep(
      grid,
      [&](const engine::Point& point) {
        bench::TrafficCell cell;
        cell.scheme = schemes[point.index("scheme")];
        cell.aggregate_gbps = cap.aggregate_gbps * point.value("load") / 100.0;
        cell.sim_s = sim_s;
        cell.seed = 33;
        const auto stats = bench::run_traffic_cell(
            backend, problem.input, plan, build, traffic, cell);
        return Cell{stats.loss_rate * 100.0, stats.mean_delay_s * 1000.0};
      },
      {.threads = ctx.threads});

  auto& delay = results.add_table(
      "ablation_routing_delay", "mean delay (ms) vs load by scheme",
      {"load_%", "shortest-path", "min-max-util", "throughput-opt"});
  auto& loss = results.add_table(
      "ablation_routing_loss", "loss rate (%) vs load by scheme",
      {"load_%", "shortest-path", "min-max-util", "throughput-opt"});
  for (std::size_t l = 0; l < loads.size(); ++l) {
    std::vector<engine::Value> loss_row = {static_cast<int>(loads[l])};
    std::vector<engine::Value> delay_row = loss_row;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const Cell& cell = sweep.at(l * schemes.size() + s);
      loss_row.push_back(engine::Value::real(cell.loss_pct, 3));
      delay_row.push_back(engine::Value::real(cell.delay_ms, 3));
    }
    loss.row(loss_row);
    delay.row(delay_row);
  }
  results.note(
      "Paper shape: §5 reports the alternative schemes absorb higher loads "
      "at ~10%\nextra latency. Here min-max-utilization pays a small latency "
      "premium and\nwidest-path (our throughput-optimal stand-in) a large "
      "one, while both keep\nutilization far below shortest-path's "
      "bottleneck — same trade, different\noperating points.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "ablation_routing",
     .description = "§5 ablation: routing schemes, latency vs load tolerance",
     .tags = {"ablation", "simulation", "routing", "sweep"},
     .params = {{"budget", "2000", "tower budget for the design"},
                {"centers", "40 (25 in fast mode)",
                 "population centers in the design problem"},
                bench::traffic_backend_param()}},
    run};

}  // namespace
