// Tests of the benchmark's own machinery: percentile support, the metric
// catalog against BENCHMARK.json, output checks counting failed
// operations, and span self times.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "report.hpp"

namespace {

using perfbench::MetricSpec;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helpers must sort
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(perfbench::percentile(one_to(10), 50.0), 5.0);
  EXPECT_EQ(perfbench::percentile(one_to(10), 90.0), 9.0);
  EXPECT_EQ(perfbench::percentile(one_to(10), 100.0), 10.0);
  EXPECT_EQ(perfbench::percentile({7.0}, 90.0), 7.0);
  EXPECT_THROW((void)perfbench::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)perfbench::percentile(one_to(3), 0.0),
               std::invalid_argument);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // A simulated week: p90 leaves 16 samples beyond it, p99 only 1.
  const auto week = perfbench::highest_supported_percentile(one_to(168));
  ASSERT_TRUE(week.has_value());
  EXPECT_EQ(week->percentile, 90.0);
  EXPECT_EQ(week->value, 152.0);
  EXPECT_EQ(week->samples, 168u);
  EXPECT_EQ(week->beyond, 16u);

  // Exactly ten beyond is enough.
  const auto hundred = perfbench::highest_supported_percentile(one_to(100));
  ASSERT_TRUE(hundred.has_value());
  EXPECT_EQ(hundred->percentile, 90.0);
  EXPECT_EQ(hundred->beyond, 10u);

  const auto thousand = perfbench::highest_supported_percentile(one_to(1000));
  ASSERT_TRUE(thousand.has_value());
  EXPECT_EQ(thousand->percentile, 99.0);
  EXPECT_EQ(thousand->samples, 1000u);

  const auto twenty = perfbench::highest_supported_percentile(one_to(20));
  ASSERT_TRUE(twenty.has_value());
  EXPECT_EQ(twenty->percentile, 50.0);

  EXPECT_FALSE(perfbench::highest_supported_percentile(one_to(19)).has_value());
  EXPECT_FALSE(perfbench::highest_supported_percentile({}).has_value());
}

/// The {"name", "unit"} entries of one array of BENCHMARK.json.
std::vector<MetricSpec> manifest_metrics(const std::string& key) {
  std::ifstream in(PERFBENCH_MANIFEST);
  if (!in) throw std::runtime_error("cannot read " PERFBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) throw std::runtime_error("no " + key);
  const std::size_t begin = json.find('[', at);
  const std::size_t end = json.find(']', begin);
  const std::string array = json.substr(begin, end - begin);
  const std::regex entry(
      R"re(\{\s*"name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::vector<MetricSpec> out;
  for (auto it = std::sregex_iterator(array.begin(), array.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

void expect_same_catalog(const std::vector<MetricSpec>& manifest,
                         const std::vector<MetricSpec>& catalog) {
  ASSERT_EQ(manifest.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(manifest[i].name, catalog[i].name);
    EXPECT_EQ(manifest[i].unit, catalog[i].unit) << catalog[i].name;
  }
}

TEST(Catalog, MatchesBenchmarkManifest) {
  expect_same_catalog(manifest_metrics("end_to_end"),
                      perfbench::end_to_end_metrics());
  expect_same_catalog(manifest_metrics("per_layer"),
                      perfbench::per_layer_metrics());
}

TEST(Catalog, EveryMetricIsPrintedWithItsUnit) {
  for (const auto* catalog :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    std::map<std::string, double> measured;
    double value = 1.0;
    for (const MetricSpec& spec : *catalog) measured[spec.name] = value += 0.5;
    const std::string line = perfbench::result_line(
        true, 3, 0, perfbench::in_catalog_order(*catalog, measured));
    for (const MetricSpec& spec : *catalog) {
      const std::string printed = "\"" + spec.name + "\": {\"value\": ";
      const std::size_t at = line.find(printed);
      ASSERT_NE(at, std::string::npos) << spec.name;
      const std::size_t unit = line.find("\"unit\": \"" + spec.unit + "\"}", at);
      EXPECT_EQ(unit, line.find("\"unit\"", at)) << spec.name;
    }
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                         "\"metrics\": {",
                         0),
              0u);
  }
}

TEST(Catalog, MissingOrExtraMetricIsRefused) {
  const auto& catalog = perfbench::end_to_end_metrics();
  std::map<std::string, double> measured;
  for (const MetricSpec& spec : catalog) measured[spec.name] = 1.0;
  measured.erase(catalog.front().name);
  EXPECT_THROW((void)perfbench::in_catalog_order(catalog, measured),
               std::logic_error);
  measured[catalog.front().name] = 1.0;
  measured["not_a_metric"] = 1.0;
  EXPECT_THROW((void)perfbench::in_catalog_order(catalog, measured),
               std::logic_error);
}

TEST(Result, ValuesKeepEveryDigitAndRefuseNonFinite) {
  const std::string line =
      perfbench::result_line(true, 1, 0, {{"x", "s", 0.1234567890123}});
  EXPECT_NE(line.find("0.1234567890123"), std::string::npos);
  EXPECT_THROW(
      (void)perfbench::result_line(
          true, 1, 0, {{"x", "s", std::numeric_limits<double>::quiet_NaN()}}),
      std::invalid_argument);
}

// --- Output checks: an injected invariant violation is a failed operation.

cisp::net::timeline::EpochStats good_epoch() {
  cisp::net::timeline::EpochStats row;
  row.offered_bps = 10.0;
  row.delivered_bps = 9.0;
  row.max_link_utilization = 1.0;
  return row;
}

std::vector<cisp::net::flow::PairOutcome> good_outcomes() {
  cisp::net::flow::PairOutcome routed;
  routed.offered_bps = 6.0;
  routed.delivered_bps = 5.0;
  routed.stretch = 1.3;
  cisp::net::flow::PairOutcome denied;
  denied.offered_bps = 4.0;
  denied.delivered_bps = 0.0;
  denied.stretch = 0.0;
  return {routed, denied};
}

cisp::net::MultipathRouteSet good_routes() {
  cisp::net::MultipathRouteSet routes;
  routes.pair_paths.resize(2);
  routes.pair_paths[0] = {{{}, 0.25}, {{}, 0.75}};
  return routes;  // pair 1 denied: empty set
}

TEST(Checks, CleanOperationsPass) {
  perfbench::Tally tally;
  cisp::design::Topology topo;
  topo.cost_towers = 2999.0;
  topo.mean_stretch = 1.2;
  tally.record("design", perfbench::check_design_cell(topo, 3000.0));
  const auto routes = good_routes();
  tally.record("epoch", perfbench::check_epoch(good_epoch(), good_outcomes(),
                                               &routes));
  cisp::net::TrafficStats packet;
  cisp::net::TrafficStats fluid;
  packet.mean_delay_s = 0.0201;
  fluid.mean_delay_s = 0.0200;
  tally.record("packet", perfbench::check_packet_cell(packet, fluid, true));
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_TRUE(tally.violations.empty());
}

TEST(Checks, InjectedViolationsCountAsFailedOperations) {
  perfbench::Tally tally;
  const auto record = [&](const std::string& op, const std::string& v) {
    EXPECT_FALSE(v.empty()) << op;
    tally.record(op, v);
  };

  cisp::design::Topology over_budget;
  over_budget.cost_towers = 3001.0;
  over_budget.mean_stretch = 1.2;
  record("cost", perfbench::check_design_cell(over_budget, 3000.0));
  cisp::design::Topology short_stretch;
  short_stretch.cost_towers = 10.0;
  short_stretch.mean_stretch = 0.9;
  record("stretch", perfbench::check_design_cell(short_stretch, 3000.0));

  auto over_delivered = good_epoch();
  over_delivered.delivered_bps = 11.0;
  record("delivered",
         perfbench::check_epoch(over_delivered, good_outcomes(), nullptr));
  auto over_utilized = good_epoch();
  over_utilized.max_link_utilization = 1.01;
  record("utilization",
         perfbench::check_epoch(over_utilized, good_outcomes(), nullptr));
  auto leaking = good_outcomes();
  leaking[1].delivered_bps = 0.5;
  record("denied", perfbench::check_epoch(good_epoch(), leaking, nullptr));
  auto unnormalized = good_routes();
  unnormalized.pair_paths[0][1].weight = 0.7;
  record("weight sum",
         perfbench::check_epoch(good_epoch(), good_outcomes(), &unnormalized));
  auto negative = good_routes();
  negative.pair_paths[0] = {{{}, -0.25}, {{}, 1.25}};
  record("weight sign",
         perfbench::check_epoch(good_epoch(), good_outcomes(), &negative));

  cisp::net::TrafficStats packet;
  cisp::net::TrafficStats fluid;
  fluid.mean_delay_s = 0.0200;
  packet.mean_delay_s = 0.0200;
  packet.loss_rate = 1.5;
  record("loss", perfbench::check_packet_cell(packet, fluid, false));
  packet.loss_rate = 0.0;
  packet.mean_delay_s = 0.0220;  // 2 ms off; 5% + 0.5 ms allows 1.5 ms
  record("fidelity", perfbench::check_packet_cell(packet, fluid, true));
  EXPECT_TRUE(perfbench::check_packet_cell(packet, fluid, false).empty());

  EXPECT_EQ(tally.attempted, 9u);
  EXPECT_EQ(tally.failed, 9u);
  EXPECT_EQ(tally.violations.size(), 8u);  // the first few are kept
}

// --- Span self times.

cisp::obs::TraceEvent event(const char* name, const char* cat, char ph,
                            std::uint64_t ts, std::uint32_t tid = 1) {
  cisp::obs::TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = ph;
  e.ts_ns = ts;
  e.tid = tid;
  return e;
}

TEST(SpanTimes, SelfTimeSubtractsDirectChildrenOnly) {
  const std::vector<cisp::obs::TraceEvent> events = {
      event("outer", "layer", 'B', 0),
      event("child", "cisp", 'B', 10),
      event("grandchild", "cisp", 'B', 12),
      event("other", "cisp", 'B', 13, 2),  // another thread: no parent here
      event("grandchild", "cisp", 'E', 15),
      event("child", "cisp", 'E', 30),
      event("other", "cisp", 'E', 60, 2),
      event("child", "cisp", 'B', 40),
      event("tick", "cisp", 'i', 45),
      event("child", "cisp", 'E', 50),
      event("outer", "layer", 'E', 100),
  };
  const auto times = perfbench::span_times(events);
  EXPECT_EQ(times.at("outer").total_ns, 100u);
  EXPECT_EQ(times.at("outer").self_ns, 70u);  // minus 20 + 10 of children
  EXPECT_EQ(times.at("child").total_ns, 30u);
  EXPECT_EQ(times.at("child").self_ns, 27u);  // minus the grandchild's 3
  EXPECT_EQ(times.at("child").count, 2u);
  EXPECT_EQ(times.at("grandchild").self_ns, 3u);
  EXPECT_EQ(times.at("other").self_ns, 47u);
  EXPECT_EQ(times.count("tick"), 0u);
}

TEST(SpanTimes, EndWithoutBeginIsIgnored) {
  const auto times = perfbench::span_times(
      {event("late", "cisp", 'E', 5), event("a", "cisp", 'B', 6),
       event("a", "cisp", 'E', 9)});
  EXPECT_EQ(times.count("late"), 0u);
  EXPECT_EQ(times.at("a").self_ns, 3u);
}

TEST(SpanCoverage, UnionOfLayerSpansInsideTheWindow) {
  const std::vector<cisp::obs::TraceEvent> events = {
      event("layer.pre", "layer", 'B', 0),  // before the window
      event("layer.pre", "layer", 'E', 5),
      event("window", "bench", 'B', 10),
      event("layer.a", "layer", 'B', 12),
      event("layer.a", "layer", 'E', 20),
      event("layer.b", "layer", 'B', 30),
      event("inner", "cisp", 'B', 35),
      event("layer.c", "layer", 'B', 36),  // nested in b: counted once
      event("layer.c", "layer", 'E', 38),
      event("inner", "cisp", 'E', 40),
      event("layer.b", "layer", 'E', 50),
      event("layer.x", "layer", 'B', 55, 2),  // another thread
      event("layer.x", "layer", 'E', 95, 2),
      event("window", "bench", 'E', 110),
  };
  const auto coverage = perfbench::span_coverage(events, "window", "layer");
  EXPECT_EQ(coverage.window_ns, 100u);
  EXPECT_EQ(coverage.covered_ns, 28u);  // [12, 20) and [30, 50)
  EXPECT_EQ(perfbench::span_coverage(events, "missing", "layer").window_ns,
            0u);
}

}  // namespace
