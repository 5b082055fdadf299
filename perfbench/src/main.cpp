// cisp_perfbench: the repository benchmark. One process runs one workload
// from inputs made from --seed, times calls into the library's public
// functions from outside, checks every operation's outputs, and prints as
// its last stdout line one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). perfbench/README.md
// says why each workload exists and which layer it makes dominant.
//
//   cisp_perfbench --workload design_sweep --seed 1 --seconds 12 --trace 0

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "design/greedy.hpp"
#include "design/scenario.hpp"
#include "infra/towers.hpp"
#include "net/builder.hpp"
#include "net/control/weather_coupling.hpp"
#include "net/timeline/timeline.hpp"
#include "net/traffic_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "terrain/regions.hpp"
#include "util/rng.hpp"
#include "weather/rainfield.hpp"

namespace {

using namespace cisp;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload shape. Sizes follow the fast US substrate (0.05 degree
// raster, at most 4500 rural towers) the catalog's --fast runs use.
// ---------------------------------------------------------------------------
// One worker thread: the library's serial paths. On a shared 4-vCPU VM, 2
// threads ran slower (a 62-center design 0.83 s vs 0.63 s, a shortest-path
// week 10.3 s vs 8.2 s) and moved more between runs.
constexpr std::size_t kThreads = 1;
// Designs, demand and weather stay fixed across seeds: redrawing the
// terrain and towers per seed made one seed's TE LP cost 2.4x another's,
// jittering the populations the designs are solved for moved greedy's time
// 1.6x, and drawing the rain or jittering each pair's demand by 10% moved
// the TE week's p90 by 1.3x. The seed draws the epochs at which the weather
// changes and the packet sources' phases.
constexpr std::uint64_t kSubstrateSeed = 2022;
constexpr int kSetupRepeats = 3;          // setup_s is their median
constexpr std::size_t kTopCities = 80;    // ~62 centers after coalescing
constexpr std::uint64_t kUsers = 100000;
constexpr double kAggregateGbps = 100.0;  // design capacity, all pairs
constexpr double kTimelineLoad = 0.85;    // of kAggregateGbps, mean activity
constexpr std::size_t kWeekEpochs = 168;  // hourly epochs
constexpr double kBudget = 3000.0;        // towers, timeline/packet designs
constexpr std::size_t kSmallCenters = 25;
const std::vector<std::size_t> kGridCenters = {25, 40, 0};  // 0 = all
const std::vector<double> kGridBudgets = {1000.0, 2000.0, 3000.0, 5000.0};
// Packet cells: offered load in % of nominal. The 3000-tower design has
// ~2x headroom, so cells under 200% sit below the knee.
const std::vector<double> kPacketLoads = {40.0, 80.0, 120.0, 160.0, 240.0,
                                          320.0};
constexpr double kKneeLoad = 200.0;
constexpr double kPacketRateScale = 0.1;
constexpr double kPacketSimSeconds = 0.2;
constexpr double kProbeLoad = 50.0;
// Repeated units, so each timing is a median of several samples. Short
// units repeat for at least kShortUnitSeconds.
constexpr int kMinGridPasses = 1;    // design_sweep
constexpr int kMinPacketPasses = 2;  // packet_load
constexpr int kDesignResamples = 2;  // extra solves of a workload's one design
constexpr int kProbeWeeks = 2;
constexpr int kProbePacketRuns = 5;
constexpr double kShortUnitSeconds = 1.0;
// Timeline weather: the distinct link states of the first week of the
// year's rain, replayed in order as exactly kChurnEpochs changes.
constexpr std::size_t kRainPoolHours = kWeekEpochs;
constexpr std::size_t kChurnEpochs = 24;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The middle sample, or the mean of the two middle ones.
double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Runs one layer call inside a trace span named after its per-layer
/// metric (category "layer"); with tracing off the span is one relaxed
/// load.
template <class F>
auto layer(const char* name, F&& body) {
  const obs::TraceSpan span(name, "layer");
  return body();
}

/// FNV-1a over output values: a fingerprint of what a workload computed,
/// printed so a reader can see whether results moved.
struct Digest {
  std::uint64_t state = 1469598103934665603ULL;
  void add(double value) {
    unsigned char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    for (const unsigned char b : bytes) {
      state = (state ^ b) * 1099511628211ULL;
    }
  }
};

// ---------------------------------------------------------------------------
// Substrate and designs.
// ---------------------------------------------------------------------------

/// The fast US substrate, built layer by layer with the options
/// design::build_us_scenario derives for fast mode, so each layer's
/// constructor is timed on its own.
design::Scenario build_substrate() {
  design::ScenarioOptions options;
  options.seed = kSubstrateSeed;
  options.fast = true;
  options.top_cities = kTopCities;
  terrain::Region region = terrain::contiguous_us(options.seed);
  region.raster_cell_deg = 0.05;
  options.hop.profile_step_km = std::max(options.hop.profile_step_km, 2.0);
  options.towers.rural_towers =
      std::min<std::size_t>(options.towers.rural_towers, 4500);
  options.towers.metro_scale = std::min(options.towers.metro_scale, 6.0);
  options.towers.corridor_towers_per_100km =
      std::min(options.towers.corridor_towers_per_100km, 4.0);
  options.towers.seed = options.seed;

  design::Scenario scenario;
  scenario.name = "us";
  scenario.region = region;
  scenario.options = options;
  scenario.raster = layer("terrain.raster", [&] {
    return std::make_shared<const terrain::RasterTerrain>(
        region.make_terrain(), region.box, region.raster_cell_deg);
  });
  scenario.cities = infra::top_cities(infra::us_cities(), options.top_cities);
  scenario.centers =
      infra::coalesce_cities(scenario.cities, options.coalesce_km);
  auto towers = layer("infra.towers", [&] {
    return infra::generate_towers(region, scenario.cities, options.towers);
  });
  scenario.tower_graph = layer("design.hop_graph", [&] {
    return design::build_tower_graph(*scenario.raster, std::move(towers),
                                     options.hop);
  });
  return scenario;
}

struct Design {
  std::size_t centers = 0;  // as asked (0 = all)
  double budget = 0.0;
  design::SiteProblem problem;
  design::Topology topo;
  design::CapacityPlan plan;
  std::vector<std::vector<double>> traffic;  // population product
  double seconds = 0.0;  // problem + greedy + capacity
};

Design run_design(const design::Scenario& scenario, std::size_t centers,
                  double budget) {
  const auto start = Clock::now();
  design::SiteProblem problem = layer("design.problem", [&] {
    return design::city_city_problem(scenario, budget, centers);
  });
  design::GreedyOptions greedy;
  greedy.solver.threads = kThreads;
  design::Topology topo = layer(
      "design.greedy", [&] { return design::solve_greedy(problem.input, greedy); });
  design::CapacityParams cap;
  cap.aggregate_gbps = kAggregateGbps;
  design::CapacityPlan plan = layer("design.capacity", [&] {
    return design::plan_capacity(problem.input, topo, problem.links,
                                 scenario.tower_graph.towers, cap);
  });
  const double seconds = since(start);
  std::vector<infra::PopulationCenter> pcs = scenario.centers;
  if (centers > 0 && pcs.size() > centers) pcs.resize(centers);
  return Design{centers,         budget,
                std::move(problem), std::move(topo),
                std::move(plan),    infra::population_product_traffic(pcs),
                seconds};
}

// ---------------------------------------------------------------------------
// Measurement state shared by the workloads.
// ---------------------------------------------------------------------------

/// An epoch is churn when it carries link deltas. A driver's first epoch
/// carries none but solves cold; it counts as quiet in the per-layer
/// medians and is set apart only when locating p90.
enum class EpochKind { Quiet, First, Churn };

struct Run {
  perfbench::Tally tally;
  Digest digest;
  std::vector<double> setup_s;
  std::vector<double> design_s;      // one sample per design pass
  std::vector<double> design_stretch;
  // Timeline.
  std::vector<double> epoch_ms;
  std::vector<EpochKind> epoch_kind;
  std::vector<double> timeline_s;    // one sample per simulated week
  std::vector<double> served;        // first week, per epoch
  std::vector<double> p99_stretch;   // first week, per epoch
  std::size_t te_epochs = 0;
  std::size_t te_solution_reuses = 0;
  std::size_t te_candidate_reuses = 0;
  std::size_t te_lp_fallbacks = 0;
  // Packet.
  std::vector<double> des_s;         // one sample per pass over the cells
  std::vector<double> des_err_pct;   // first pass, below-knee cells
  std::size_t des_flows = 0;
  // Counts per traced pass.
  std::size_t raster_cells = 0;
  std::size_t towers = 0;
  std::size_t hops = 0;
  std::size_t candidates = 0;
  std::size_t links_built = 0;
};

void note_substrate(Run& run, const design::Scenario& scenario) {
  run.raster_cells = scenario.raster->cell_count();
  run.towers = scenario.tower_graph.towers.size();
  run.hops = scenario.tower_graph.feasible_hops;
}

void check_design(Run& run, const Design& d, bool first_pass) {
  run.tally.record("design cell " + std::to_string(d.centers) + "/" +
                       std::to_string(static_cast<int>(d.budget)),
                   perfbench::check_design_cell(d.topo, d.budget));
  if (!first_pass) return;
  run.design_stretch.push_back(d.topo.mean_stretch);
  run.candidates += d.problem.input.candidates().size();
  run.links_built += d.topo.links.size();
  run.digest.add(d.topo.cost_towers);
  run.digest.add(d.topo.mean_stretch);
  run.digest.add(static_cast<double>(d.plan.installed_hop_series));
}

// ---------------------------------------------------------------------------
// Timeline.
// ---------------------------------------------------------------------------

struct TimelineSpec {
  bool weather = true;
  bool multipath_te = false;
};

/// A designed network ready to run a timeline on. Heap-held: the driver
/// keeps pointers into it.
struct TimelineRig {
  explicit TimelineRig(Design d) : design(std::move(d)) {}

  Design design;
  net::LinkPlan links;
  std::vector<std::vector<double>> schedule;  // per-epoch link factors
  net::flow::DemandMatrix base;
  net::timeline::TimelineOptions options;
  std::unique_ptr<net::timeline::TimelineDriver> driver;

  void make_driver() {
    driver = layer("timeline.driver", [&] {
      return std::make_unique<net::timeline::TimelineDriver>(
          links, design.problem.sites, base,
          [this](std::uint32_t s, std::uint32_t t) {
            return design.problem.input.geodesic_km(s, t);
          },
          options);
    });
  }
};

weather::RainField make_rain(const std::vector<geo::LatLon>& sites) {
  terrain::BoundingBox box;
  box.lat_min = 90.0;
  box.lat_max = -90.0;
  box.lon_min = 180.0;
  box.lon_max = -180.0;
  for (const auto& site : sites) {
    box.lat_min = std::min(box.lat_min, site.lat_deg - 2.0);
    box.lat_max = std::max(box.lat_max, site.lat_deg + 2.0);
    box.lon_min = std::min(box.lon_min, site.lon_deg - 2.0);
    box.lon_max = std::max(box.lon_max, site.lon_deg + 2.0);
  }
  weather::RainParams params;
  params.seed = splitmix64(kSubstrateSeed ^ 0x7261696eULL);
  return weather::RainField(box, params);
}

/// A week of rain-driven link capacity factors with a fixed churn rate.
/// The rain field is sampled hourly through the library's weather coupling;
/// the week starts clear and steps to the next distinct sampled state
/// (cycling) at exactly kChurnEpochs seeded epochs. How often links change
/// is the input property a timeline's cost depends on most (a TE epoch with
/// link deltas re-solves its LP cold), and which states it meets sets each
/// solve's cost; fixing both makes every seed do the same work, while the
/// seed still picks when the weather changes.
std::vector<std::vector<double>> rain_schedule(
    const net::LinkPlan& links, const std::vector<geo::LatLon>& sites,
    const weather::RainField& rain, std::uint64_t seed) {
  const auto geometry = net::control::link_geometry(links, sites);
  std::vector<std::vector<double>> states = {
      std::vector<double>(links.links.size(), 1.0)};  // clear sky
  for (std::size_t hour = 0; hour < kRainPoolHours; ++hour) {
    auto factors = net::control::link_capacity_factors(
        links, geometry, rain, static_cast<double>(hour) * 3600.0);
    if (factors != states.back()) states.push_back(std::move(factors));
  }
  if (states.size() < 2) {
    throw std::runtime_error("rain never degrades a link; no churn to replay");
  }
  Rng rng(splitmix64(seed ^ 0x636875726eULL));
  std::vector<std::size_t> epochs;
  for (std::size_t e = 1; e < kWeekEpochs; ++e) epochs.push_back(e);
  for (std::size_t i = 0; i < kChurnEpochs; ++i) {
    std::swap(epochs[i], epochs[i + rng.uniform_index(epochs.size() - i)]);
  }
  std::vector<char> churn(kWeekEpochs, 0);
  for (std::size_t i = 0; i < kChurnEpochs; ++i) churn[epochs[i]] = 1;

  std::vector<std::vector<double>> schedule;
  std::size_t current = 0;
  for (std::size_t e = 0; e < kWeekEpochs; ++e) {
    if (churn[e]) {
      current = (current + 1) % states.size();
      // Cycling back to the clear state must still change a link.
      if (states[current] == schedule.back()) current = 1;
    }
    schedule.push_back(states[current]);
  }
  return schedule;
}

std::unique_ptr<TimelineRig> make_timeline_rig(Design design,
                                               const TimelineSpec& spec,
                                               std::uint64_t seed) {
  auto rig = std::make_unique<TimelineRig>(std::move(design));
  net::BuildOptions build;
  build.rate_scale = 1.0;
  rig->links = layer("net.plan_links", [&] {
    return net::plan_links(rig->design.problem.input, rig->design.plan, build);
  });
  const double per_user_bps =
      kAggregateGbps * 1e9 * kTimelineLoad / static_cast<double>(kUsers);
  rig->base = layer("flow.demands", [&] {
    return net::flow::DemandMatrix::from_users(
        rig->design.traffic, kUsers, per_user_bps);
  });
  if (spec.weather) {
    rig->schedule = layer("weather.rainfield", [&] {
      const weather::RainField rain = make_rain(rig->design.problem.sites);
      return rain_schedule(rig->links, rig->design.problem.sites, rain, seed);
    });
  }
  auto& options = rig->options;
  options.epochs = kWeekEpochs;
  options.hours_per_epoch = 1.0;
  options.diurnal.tz_offset_hours =
      net::scenario::timezone_offsets(rig->design.problem.sites);
  options.diurnal.amplitude = 0.6;
  options.annual_growth = 0.2;
  if (spec.weather) options.factor_schedule = &rig->schedule;
  options.policy.max_stretch = 2.5;
  options.multipath_te = spec.multipath_te;
  options.te_split.candidates.max_stretch = 2.5;
  options.backend = net::TrafficBackend::Flow;
  options.threads = kThreads;
  rig->make_driver();
  return rig;
}

/// Steps one simulated week on the rig's driver, timing every step.
void run_week(Run& run, TimelineRig& rig, bool first_week) {
  double week_s = 0.0;
  auto& driver = *rig.driver;
  for (std::size_t e = 0; e < kWeekEpochs; ++e) {
    const std::size_t solution_reuses = driver.te_warm().solution_reuses;
    const auto start = Clock::now();
    const net::timeline::EpochStats row =
        layer("timeline.epoch", [&] { return driver.step(); });
    const double step_s = since(start);
    week_s += step_s;
    run.epoch_ms.push_back(step_s * 1e3);
    run.epoch_kind.push_back(row.link_deltas > 0 ? EpochKind::Churn
                             : e == 0          ? EpochKind::First
                                               : EpochKind::Quiet);

    const net::MultipathRouteSet* te_routes = nullptr;
    if (rig.options.multipath_te) {
      const auto& warm = driver.te_warm();
      te_routes = &warm.solution.routes;
      if (warm.solution_reuses == solution_reuses &&
          warm.solution.lp_fallback) {
        ++run.te_lp_fallbacks;
      }
    }
    run.tally.record(
        "epoch " + std::to_string(row.epoch),
        perfbench::check_epoch(row, driver.last_outcomes(), te_routes));
    if (first_week) {
      run.served.push_back(row.served_fraction);
      run.p99_stretch.push_back(row.p99_stretch);
      run.digest.add(row.delivered_bps);
      run.digest.add(row.p99_stretch);
      run.digest.add(row.max_link_utilization);
    }
  }
  run.timeline_s.push_back(week_s);
  if (rig.options.multipath_te) {
    run.te_epochs += kWeekEpochs;
    run.te_solution_reuses += driver.te_warm().solution_reuses;
    run.te_candidate_reuses += driver.te_warm().candidate_reuses;
  }
}

/// Runs `unit(first)` until `seconds` have passed and at least `min_units`
/// units ran.
template <class F>
void repeat_units(double seconds, int min_units, F&& unit) {
  const auto start = Clock::now();
  for (int i = 0; i < min_units || since(start) < seconds; ++i) unit(i == 0);
}

/// Simulated weeks; each week after the first replays the same inputs on a
/// fresh driver.
void run_weeks(Run& run, TimelineRig& rig, double seconds, int min_weeks) {
  repeat_units(seconds, min_weeks, [&](bool first) {
    if (!first) rig.make_driver();
    run_week(run, rig, first);
  });
}

// ---------------------------------------------------------------------------
// Packet cells.
// ---------------------------------------------------------------------------

struct PacketCell {
  double load_pct = 0.0;
  bool below_knee = true;
};

/// One packet cell (timed) and its fluid reference (untimed), checked.
double run_packet_cell(Run& run, const Design& d, const PacketCell& cell,
                       std::uint64_t seed, bool first_pass) {
  net::BuildOptions build;
  build.rate_scale = kPacketRateScale;
  const double offered_bps = kAggregateGbps * 1e9 * cell.load_pct / 100.0;
  const double per_user_bps =
      offered_bps / static_cast<double>(kUsers) * build.rate_scale;
  const auto demands = net::flow::DemandMatrix::from_users(
      d.traffic, kUsers, per_user_bps);
  net::TrafficRunOptions options;
  options.sim_duration_s = kPacketSimSeconds;
  options.seed = seed;
  options.threads = kThreads;

  const auto start = Clock::now();
  const net::TrafficReport packet = layer("des.cell", [&] {
    return net::make_traffic_model(net::TrafficBackend::Packet,
                                   d.problem.input, d.plan, build)
        ->run(demands, options);
  });
  const double packet_s = since(start);
  const net::TrafficReport fluid = layer("flow.reference", [&] {
    return net::make_traffic_model(net::TrafficBackend::Flow, d.problem.input,
                                   d.plan, build)
        ->run(demands, options);
  });
  run.tally.record("packet cell " + std::to_string(static_cast<int>(
                                        cell.load_pct)) + "%",
                   perfbench::check_packet_cell(packet.stats, fluid.stats,
                                                cell.below_knee));
  if (first_pass) {
    run.des_flows = packet.stats.flows;
    if (cell.below_knee) {
      run.des_err_pct.push_back(
          perfbench::delay_error_pct(packet.stats, fluid.stats));
    }
    run.digest.add(packet.stats.mean_delay_s);
    run.digest.add(packet.stats.loss_rate);
    run.digest.add(fluid.stats.mean_delay_s);
  }
  return packet_s;
}

void run_packet_pass(Run& run, const Design& d,
                     const std::vector<PacketCell>& cells, std::uint64_t seed,
                     bool first_pass) {
  double pass_s = 0.0;
  for (const PacketCell& cell : cells) {
    pass_s += run_packet_cell(run, d, cell, seed, first_pass);
  }
  run.des_s.push_back(pass_s);
}

// ---------------------------------------------------------------------------
// Workloads. Each has a setup (repeated when measuring setup_s) and a
// measured section; the metrics of layers a workload does not exercise come
// from small fixed probes after its measured section (a diurnal
// shortest-path week, one below-knee packet cell), so every run reports
// every metric.
// ---------------------------------------------------------------------------

/// A built workload: whatever its measured section needs.
struct Prepared {
  design::Scenario scenario;
  std::unique_ptr<TimelineRig> rig;
  std::unique_ptr<Design> design;  // packet_load
};

struct Workload {
  std::string name;
  std::function<Prepared(Run&, std::uint64_t)> setup;
  std::function<void(Run&, Prepared&, std::uint64_t, double)> measure;
};

void timeline_probe(Run& run, const Design& d, std::uint64_t seed) {
  auto rig = make_timeline_rig(d, TimelineSpec{false, false}, seed);
  run_weeks(run, *rig, kShortUnitSeconds, kProbeWeeks);
}

void packet_probe(Run& run, const Design& d, std::uint64_t seed) {
  repeat_units(kShortUnitSeconds, kProbePacketRuns, [&](bool first) {
    run_packet_pass(run, d, {{kProbeLoad, true}}, seed, first);
  });
}

/// More samples of design_s for a workload built on one design.
void resample_design(Run& run, const design::Scenario& scenario,
                     const Design& d) {
  repeat_units(kShortUnitSeconds, kDesignResamples, [&](bool) {
    const Design again = run_design(scenario, d.centers, d.budget);
    run.design_s.push_back(again.seconds);
    check_design(run, again, false);
  });
}

std::vector<PacketCell> packet_cells() {
  std::vector<PacketCell> cells;
  for (const double load : kPacketLoads) {
    cells.push_back({load, load < kKneeLoad});
  }
  return cells;
}

Prepared setup_substrate_only(Run& run, std::uint64_t /*seed*/) {
  Prepared p;
  p.scenario = build_substrate();
  note_substrate(run, p.scenario);
  return p;
}

Prepared setup_timeline(Run& run, std::uint64_t seed, std::size_t centers,
                        const TimelineSpec& spec) {
  Prepared p;
  p.scenario = build_substrate();
  note_substrate(run, p.scenario);
  Design d = run_design(p.scenario, centers, kBudget);
  run.design_s.push_back(d.seconds);
  p.rig = make_timeline_rig(std::move(d), spec, seed);
  return p;
}

void measure_timeline(Run& run, Prepared& p, std::uint64_t seed,
                      double seconds) {
  check_design(run, p.rig->design, true);
  run_weeks(run, *p.rig, seconds, 1);
  resample_design(run, p.scenario, p.rig->design);
  packet_probe(run, p.rig->design, seed);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"design_sweep", setup_substrate_only,
       [](Run& run, Prepared& p, std::uint64_t seed, double seconds) {
         std::unique_ptr<Design> probe_design;
         repeat_units(seconds, kMinGridPasses, [&](bool first) {
           double grid_s = 0.0;
           for (const std::size_t centers : kGridCenters) {
             for (const double budget : kGridBudgets) {
               Design d = run_design(p.scenario, centers, budget);
               grid_s += d.seconds;
               check_design(run, d, first);
               if (first && centers == kSmallCenters && budget == kBudget) {
                 probe_design = std::make_unique<Design>(std::move(d));
               }
             }
           }
           run.design_s.push_back(grid_s);
         });
         timeline_probe(run, *probe_design, seed);
         packet_probe(run, *probe_design, seed);
       }},
      {"timeline_te",
       [](Run& run, std::uint64_t seed) {
         return setup_timeline(run, seed, kSmallCenters, {true, true});
       },
       measure_timeline},
      {"timeline_shortest",
       [](Run& run, std::uint64_t seed) {
         return setup_timeline(run, seed, 0, {true, false});
       },
       measure_timeline},
      {"packet_load",
       [](Run& run, std::uint64_t /*seed*/) {
         Prepared p;
         p.scenario = build_substrate();
         note_substrate(run, p.scenario);
         p.design = std::make_unique<Design>(
             run_design(p.scenario, kSmallCenters, kBudget));
         run.design_s.push_back(p.design->seconds);
         return p;
       },
       [](Run& run, Prepared& p, std::uint64_t seed, double seconds) {
         check_design(run, *p.design, true);
         repeat_units(seconds, kMinPacketPasses, [&](bool first) {
           run_packet_pass(run, *p.design, packet_cells(), seed, first);
         });
         resample_design(run, p.scenario, *p.design);
         timeline_probe(run, *p.design, seed);
       }},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ok_pct(const perfbench::Tally& tally) {
  return tally.attempted == 0
             ? 0.0
             : 100.0 * static_cast<double>(tally.attempted - tally.failed) /
                   static_cast<double>(tally.attempted);
}

/// p90 of the epoch step times, refusing a sample too small to support it.
double epoch_p90(const std::vector<double>& epoch_ms) {
  const auto supported = perfbench::highest_supported_percentile(epoch_ms);
  if (!supported || supported->percentile < 90.0) {
    throw std::runtime_error("too few epochs for a p90 with 10 samples beyond");
  }
  return perfbench::percentile(epoch_ms, 90.0);
}

std::map<std::string, double> end_to_end(const Run& run) {
  std::map<std::string, double> m;
  m["setup_s"] = median(run.setup_s);
  m["design_s"] = median(run.design_s);
  m["design_stretch"] = mean(run.design_stretch);
  m["epoch_ms_p50"] = perfbench::percentile(run.epoch_ms, 50.0);
  m["epoch_ms_p90"] = epoch_p90(run.epoch_ms);
  m["timeline_s"] = median(run.timeline_s);
  m["served_pct"] = mean(run.served) * 100.0;
  m["stretch_p99"] = mean(run.p99_stretch);
  m["des_s"] = median(run.des_s);
  m["des_delay_err_pct"] = mean(run.des_err_pct);
  m["peak_rss_mb"] = peak_rss_mb();
  m["ok_pct"] = ok_pct(run.tally);
  return m;
}

/// Reports whether p90 lies inside the churn mode: above every quiet
/// epoch after the drivers' first.
void describe_epochs(const Run& run) {
  std::vector<double> quiet;
  std::vector<double> churn;
  for (std::size_t i = 0; i < run.epoch_ms.size(); ++i) {
    if (run.epoch_kind[i] == EpochKind::Churn) {
      churn.push_back(run.epoch_ms[i]);
    } else if (run.epoch_kind[i] == EpochKind::Quiet) {
      quiet.push_back(run.epoch_ms[i]);
    }
  }
  const double p90 = perfbench::percentile(run.epoch_ms, 90.0);
  std::size_t churn_at_or_above = 0;
  for (const double v : churn) churn_at_or_above += v >= p90 ? 1 : 0;
  const double max_quiet = quiet.empty()
                               ? 0.0
                               : *std::max_element(quiet.begin(), quiet.end());
  std::fprintf(stderr,
               "epochs: %zu (%zu churn); p90 %.3f ms; slowest quiet after the "
               "first %.3f ms; "
               "churn epochs at or above p90: %zu; p90 in churn mode: %s\n",
               run.epoch_ms.size(), churn.size(), p90, max_quiet,
               churn_at_or_above,
               !churn.empty() && p90 > max_quiet ? "yes" : "no");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  std::string known;
  for (const Workload& w : workloads()) known += " " + w.name;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

/// One setup plus one pass of the measured section; returns wall seconds.
double single_pass(const Workload& w, Run& run, std::uint64_t seed) {
  const auto start = Clock::now();
  Prepared p = w.setup(run, seed);
  run.setup_s.push_back(since(start));
  w.measure(run, p, seed, 0.0);
  return since(start);
}

void print_samples(const char* metric, const std::vector<double>& samples) {
  std::fprintf(stderr, "%s samples:", metric);
  for (const double v : samples) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
}

void report_tally(const Run& run, const std::string& workload) {
  std::fprintf(stderr, "%s: %llu operations, %llu failed; digest %016llx\n",
               workload.c_str(),
               static_cast<unsigned long long>(run.tally.attempted),
               static_cast<unsigned long long>(run.tally.failed),
               static_cast<unsigned long long>(run.digest.state));
  for (const std::string& v : run.tally.violations) {
    std::fprintf(stderr, "  FAILED %s\n", v.c_str());
  }
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::map<std::string, double> per_layer(const Run& run, double untraced_s,
                                        double traced_s) {
  const auto events = obs::trace_events();
  const auto spans = perfbench::span_times(events);
  const auto total_s = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : ms(it->second.total_ns) / 1e3;
  };
  const auto self_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : ms(it->second.self_ns);
  };
  const auto count = [](const char* name) {
    return static_cast<double>(obs::counter(name).value());
  };
  std::vector<double> quiet;
  std::vector<double> churn;
  for (std::size_t i = 0; i < run.epoch_ms.size(); ++i) {
    (run.epoch_kind[i] == EpochKind::Churn ? churn : quiet)
        .push_back(run.epoch_ms[i]);
  }
  const auto p50 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : perfbench::percentile(v, 50.0);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::map<std::string, double> m;
  m["terrain.raster_s"] = total_s("terrain.raster");
  m["terrain.cells"] = static_cast<double>(run.raster_cells);
  m["infra.towers_s"] = total_s("infra.towers");
  m["infra.towers"] = static_cast<double>(run.towers);
  m["design.hop_graph_s"] = total_s("design.hop_graph");
  m["design.hops"] = static_cast<double>(run.hops);
  m["design.problem_s"] = total_s("design.problem");
  m["design.candidates"] = static_cast<double>(run.candidates);
  m["design.greedy_s"] = total_s("design.greedy");
  m["design.links_built"] = static_cast<double>(run.links_built);
  m["design.capacity_s"] = total_s("design.capacity");
  m["greedy.heap_fill_ms"] = self_ms("greedy.heap_fill");
  m["greedy.budget_fill_ms"] = self_ms("greedy.budget_fill");
  m["greedy.swap_refine_ms"] = self_ms("greedy.swap_refine");
  m["greedy.rescore"] = count("greedy.rescore");
  m["greedy.swap_rounds"] = count("greedy.swap_rounds");
  m["weather.rainfield_s"] = total_s("weather.rainfield");
  m["timeline.quiet_step_ms_p50"] = p50(quiet);
  m["timeline.churn_step_ms_p50"] = p50(churn);
  m["timeline.churn_epochs"] = static_cast<double>(churn.size());
  m["te.split_ms"] = self_ms("te.split");
  m["te.solution_reuse_ratio"] =
      ratio(static_cast<double>(run.te_solution_reuses),
            static_cast<double>(run.te_epochs));
  m["te.candidate_reuse_ratio"] =
      ratio(static_cast<double>(run.te_candidate_reuses),
            static_cast<double>(run.te_epochs));
  m["te.lp_fallbacks"] = static_cast<double>(run.te_lp_fallbacks);
  m["flow.max_min_ms"] = self_ms("flow.max_min");
  m["flow.max_min.rounds"] = count("flow.max_min.rounds");
  m["control.repair_ms"] = self_ms("control.repair");
  m["control.repair.touched_pairs"] = count("control.repair.touched_pairs");
  m["control.repair.changed_pairs"] = count("control.repair.changed_pairs");
  m["control.repair.changed_ratio"] =
      ratio(count("control.repair.changed_pairs"),
            count("control.repair.touched_pairs"));
  const auto packet = spans.find("traffic.packet");
  m["des.cell_ms"] = packet == spans.end()
                         ? 0.0
                         : ms(packet->second.total_ns) /
                               static_cast<double>(packet->second.count);
  m["des.flows"] = static_cast<double>(run.des_flows);
  m["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0;
  const perfbench::Coverage coverage =
      perfbench::span_coverage(events, "bench.workload", "layer");
  m["trace.unattributed_pct"] =
      coverage.window_ns == 0
          ? 100.0
          : 100.0 * static_cast<double>(coverage.window_ns -
                                        coverage.covered_ns) /
                static_cast<double>(coverage.window_ns);

  std::fprintf(stderr, "layer self times (traced pass):\n");
  std::vector<std::pair<std::string, perfbench::SpanTime>> rows(spans.begin(),
                                                                spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  for (const auto& [name, time] : rows) {
    std::fprintf(stderr, "  %-24s self %10.1f ms  total %10.1f ms  x%llu\n",
                 name.c_str(), ms(time.self_ns), ms(time.total_ns),
                 static_cast<unsigned long long>(time.count));
  }
  std::fprintf(stderr,
               "untraced %.3f s, traced %.3f s (overhead %.2f%%); outside "
               "every layer span: %.2f%%\n",
               untraced_s, traced_s, m["trace.overhead_pct"],
               m["trace.unattributed_pct"]);
  return m;
}

int run_main(const Args& args) {
  const Workload& w = find_workload(args.workload);
  std::string line;
  if (!args.trace) {
    Run run;
    Prepared p;
    for (int r = 0; r < kSetupRepeats; ++r) {
      p = Prepared{};  // each setup starts cold
      Run scratch;
      const auto start = Clock::now();
      p = w.setup(r + 1 == kSetupRepeats ? run : scratch, args.seed);
      run.setup_s.push_back(since(start));
      if (r + 1 < kSetupRepeats) {
        run.design_s.insert(run.design_s.end(), scratch.design_s.begin(),
                            scratch.design_s.end());
      }
    }
    w.measure(run, p, args.seed, args.seconds);
    report_tally(run, w.name);
    print_samples("setup_s", run.setup_s);
    print_samples("design_s", run.design_s);
    print_samples("timeline_s", run.timeline_s);
    print_samples("des_s", run.des_s);
    if (!run.epoch_ms.empty()) describe_epochs(run);
    const auto metrics = perfbench::in_catalog_order(
        perfbench::end_to_end_metrics(), end_to_end(run));
    for (const auto& metric : metrics) {
      std::fprintf(stderr, "  %-20s %14.6f %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    }
    line = perfbench::result_line(run.tally.failed == 0, run.tally.attempted,
                                  run.tally.failed, metrics);
  } else {
    // An untraced pass, then the same pass traced: the difference is the
    // tracing overhead, and the traced pass gives the per-layer numbers.
    Run untraced;
    const double untraced_s = single_pass(w, untraced, args.seed);
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
    obs::clear_trace();
    obs::set_trace_enabled(true);
    Run run;
    double traced_s = 0.0;
    {
      const obs::TraceSpan window("bench.workload", "bench");
      traced_s = single_pass(w, run, args.seed);
    }
    obs::set_trace_enabled(false);
    if (obs::trace_dropped_events() > 0) {
      throw std::runtime_error("trace buffer overflowed");
    }
    report_tally(run, w.name);
    const auto metrics = perfbench::in_catalog_order(
        perfbench::per_layer_metrics(), per_layer(run, untraced_s, traced_s));
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      obs::write_chrome_trace(out);
      if (!out) throw std::runtime_error("cannot write " + args.trace_out);
    }
    const std::uint64_t attempted =
        untraced.tally.attempted + run.tally.attempted;
    const std::uint64_t failed = untraced.tally.failed + run.tally.failed;
    line = perfbench::result_line(failed == 0, attempted, failed, metrics);
  }
  std::cout << line << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cisp_perfbench: %s\n", e.what());
    return 1;
  }
}
