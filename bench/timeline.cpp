// timeline: a cISP operating over continuous time. One design carries
// 10^5-10^6 endpoints through a multi-day (up to year-long) sequence of
// hourly epochs — diurnal demand swings, weather-driven MW derates and
// outages, stretch-bounded route repair, and optional demand growth —
// with all state carried epoch-to-epoch through warm starts (incremental
// route repair, in-place demand rewrites, warm-started allocators)
// instead of rebuilding every cell. Emits the per-epoch time series
// (served, p99 stretch, Jain fairness, denied fraction) plus an SLO
// summary: per-pair availability percentiles and the fraction of pairs
// meeting two/three nines over the run.

#include <string>

#include "bench_common.hpp"
#include "net/timeline/timeline.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext& ctx) {
  const auto backend = bench::traffic_backend(ctx, "flow");
  CISP_REQUIRE(backend != net::TrafficBackend::Packet,
               "timeline runs 10^5+ endpoints — use the flow or elastic "
               "backend");
  const auto users = static_cast<std::uint64_t>(ctx.params.integer(
      "users", bench::pick(ctx, 1000000, 100000)));
  const auto days = static_cast<std::size_t>(
      ctx.params.integer("days", bench::pick(ctx, 7, 2)));
  const double load_pct = ctx.params.real("load", 85.0);
  const double amplitude = ctx.params.real("amplitude", 0.6);
  const double growth = ctx.params.real("growth", 0.2);
  const double max_stretch = ctx.params.real("max_stretch", 2.5);
  const double alpha = ctx.params.real("alpha", 1.0);
  const double served_frac = ctx.params.real("served", 0.99);
  const bool weather = ctx.params.integer("weather", 1) != 0;
  const auto centers = static_cast<std::size_t>(
      ctx.params.integer("centers", bench::pick(ctx, 40, 25)));
  CISP_REQUIRE(days >= 1, "at least one day required");

  constexpr double kAggregateGbps = 100.0;
  const auto instance = bench::designed_instance(
      ctx, ctx.params.real("budget", 3000.0), centers, kAggregateGbps);

  net::BuildOptions build;
  build.rate_scale = 1.0;
  const double offered_bps = kAggregateGbps * 1e9 * load_pct / 100.0;
  const double per_user_bps = offered_bps / static_cast<double>(users);
  auto base = net::flow::DemandMatrix::from_users(instance.traffic, users,
                                                  per_user_bps);

  const net::LinkPlan link_plan =
      net::plan_links(instance.problem.input, instance.plan, build);

  // One rain field over the design's bounding box drives the whole
  // timeline (same coupling as control_availability, but consumed as
  // per-epoch churn instead of independent draws).
  const weather::RainField rain =
      bench::design_rain(ctx, instance.problem.sites);

  net::timeline::TimelineOptions options;
  options.epochs = days * 24;
  options.hours_per_epoch = 1.0;
  options.diurnal.tz_offset_hours =
      net::scenario::timezone_offsets(instance.problem.sites);
  options.diurnal.amplitude = amplitude;
  options.annual_growth = growth;
  if (weather) options.rain = &rain;
  options.policy.max_stretch = max_stretch;
  options.backend = backend;
  options.alpha = alpha;
  options.threads = ctx.threads;
  options.served_frac = served_frac;

  net::timeline::TimelineDriver driver(
      link_plan, instance.problem.sites, base,
      [&](std::uint32_t s, std::uint32_t t) {
        return instance.problem.input.geodesic_km(s, t);
      },
      options);
  const std::vector<net::timeline::EpochStats> rows = driver.run();
  const net::timeline::TimelineSummary summary = driver.summary();

  engine::ResultSet results;
  results.note("design: stretch=" + fmt(instance.topo.mean_stretch, 3) +
               " mw_links=" + std::to_string(instance.plan.links.size()) +
               " backend=" + net::to_string(backend) +
               " users=" + std::to_string(users) +
               " epochs=" + std::to_string(options.epochs) +
               " weather=" + (weather ? std::string("on") : "off") +
               " growth=" + fmt(growth, 2) +
               " warm_reuses=" + std::to_string(summary.warm_reuses));

  auto& series = results.add_table(
      "timeline",
      "Streaming timeline: per-epoch served / stretch / fairness / churn",
      {"epoch", "utc_hour", "offered_gbps", "served_%", "p99_stretch",
       "jain", "denied_%", "avail_%", "max_util", "deltas", "touched",
       "alloc_rounds"});
  for (const auto& row : rows) {
    series.row({static_cast<std::int64_t>(row.epoch),
                engine::Value::real(row.utc_hour, 1),
                engine::Value::real(row.offered_bps / 1e9, 2),
                engine::Value::real(row.served_fraction * 100.0, 2),
                engine::Value::real(row.p99_stretch, 3),
                engine::Value::real(row.jain_fairness, 4),
                engine::Value::real(row.denied_fraction * 100.0, 2),
                engine::Value::real(row.available_fraction * 100.0, 2),
                engine::Value::real(row.max_link_utilization, 2),
                static_cast<std::int64_t>(row.link_deltas),
                static_cast<std::int64_t>(row.touched_pairs),
                static_cast<std::int64_t>(row.allocation_rounds)});
  }

  auto& slo = results.add_table(
      "timeline_slo",
      "SLO summary: per-pair availability over the whole timeline",
      {"epochs", "pairs", "three_nines_%", "two_nines_%", "min_avail",
       "p01_avail", "p10_avail", "p50_avail", "mean_served_%",
       "worst_served_%"});
  slo.row({static_cast<std::int64_t>(summary.epochs),
           static_cast<std::int64_t>(summary.pairs),
           engine::Value::real(summary.three_nines_fraction * 100.0, 2),
           engine::Value::real(summary.two_nines_fraction * 100.0, 2),
           engine::Value::real(summary.min_availability, 4),
           engine::Value::real(summary.p01_availability, 4),
           engine::Value::real(summary.p10_availability, 4),
           engine::Value::real(summary.p50_availability, 4),
           engine::Value::real(summary.mean_served_fraction * 100.0, 2),
           engine::Value::real(summary.worst_served_fraction * 100.0, 2)});

  results.note(
      "Expected shape: served % follows the diurnal swing and dips where "
      "weather\nderates bite; denied % is nonzero only in epochs whose "
      "repair hit the\nstretch bound; availability percentiles separate "
      "pairs riding all-fiber\nroutes (1.0) from MW-dependent pairs. "
      "An epoch is 'available' for a pair\nwhen delivered >= served_frac * "
      "offered. Routes are planned against base\n(nominal) rates, so only "
      "link churn — never the diurnal phase — moves them.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "timeline",
     .description =
         "Streaming timeline: warm-started epochs of diurnal demand, "
         "weather churn and route repair, with SLO summaries",
     .tags = {"bench", "simulation", "scenario", "control", "scale"},
     .params = {{"users", "1000000 (100000 in fast mode)",
                 "endpoints apportioned across city pairs"},
                {"days", "7 (2 in fast mode)",
                 "simulated days at one-hour epochs"},
                {"load", "85",
                 "mean-activity offered load, % of provisioned capacity"},
                {"amplitude", "0.6", "peak-to-mean swing of the sinusoid"},
                {"growth", "0.2",
                 "linear demand growth over a simulated year (0.2 = +20%/yr)"},
                {"max_stretch", "2.5",
                 "detour admission bound (pairs over it are denied)"},
                {"served", "0.99",
                 "per-epoch served fraction that counts as available"},
                {"weather", "1", "couple the rain field (0 = diurnal only)"},
                {"centers", "40 (25 in fast mode)",
                 "population centers in the design problem"},
                {"budget", "3000", "tower budget for the design"},
                bench::alpha_param(),
                bench::traffic_backend_param("flow")}},
    run};

}  // namespace
