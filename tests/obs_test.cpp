// Tests for the observability layer (src/obs/): metrics registry semantics
// (off-by-default, reset, snapshot ordering), the determinism contract —
// counter/histogram totals identical at every thread count, and sweep
// results byte-identical whether or not instrumentation is enabled — and
// Chrome trace-event JSON well-formedness (parseable document, matched B/E
// spans per thread).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/result.hpp"
#include "engine/sweep.hpp"
#include "net/monitors.hpp"
#include "net/node.hpp"
#include "net/sim.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisp::obs {
namespace {

/// Every obs test restores the global switches it flips: instruments are
/// process-wide, and other test suites in this binary assume they are off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    reset_metrics();
    clear_trace();
  }
  void TearDown() override { SetUp(); }
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, InstrumentsAreNoopsWhileDisabled) {
  ASSERT_FALSE(metrics_enabled());
  Counter& c = counter("obs_test.disabled");
  Timer& t = timer("obs_test.disabled_timer");
  Histogram& h = histogram("obs_test.disabled_hist", {1.0, 10.0});
  c.add(5);
  t.record_ns(100);
  h.record(3.0);
  {
    const ScopedTimer scope(t);
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(h.total(), 0u);
}

TEST_F(ObsTest, CounterAccumulatesWhenEnabled) {
  set_metrics_enabled(true);
  Counter& c = counter("obs_test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup by the same name returns the same instrument.
  EXPECT_EQ(&counter("obs_test.counter"), &c);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsIdentity) {
  set_metrics_enabled(true);
  Counter& c = counter("obs_test.reset_me");
  c.add(7);
  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&counter("obs_test.reset_me"), &c);
  c.add(3);
  EXPECT_EQ(c.value(), 3u);
}

TEST_F(ObsTest, HistogramBucketsByUpperBound) {
  set_metrics_enabled(true);
  Histogram& h = histogram("obs_test.hist", {10.0, 100.0});
  h.record(3.0);    // <= 10
  h.record(10.0);   // <= 10 (bounds are inclusive)
  h.record(50.0);   // <= 100
  h.record(1e6);    // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST_F(ObsTest, ScopedTimerCountsScopes) {
  set_metrics_enabled(true);
  Timer& t = timer("obs_test.scoped");
  for (int i = 0; i < 3; ++i) {
    const ScopedTimer scope(t);
  }
  EXPECT_EQ(t.count(), 3u);
}

TEST_F(ObsTest, SnapshotIsSortedAndSkipsZeroRows) {
  set_metrics_enabled(true);
  counter("obs_test.snap_b").add(2);
  counter("obs_test.snap_a").add(1);
  (void)counter("obs_test.snap_zero");  // registered, never incremented
  const auto rows = metrics_snapshot();
  std::vector<std::string> names;
  for (const auto& row : rows) {
    if (row.name.rfind("obs_test.snap_", 0) == 0) names.push_back(row.name);
  }
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "obs_test.snap_a");
  EXPECT_EQ(names[1], "obs_test.snap_b");
  // include_zero surfaces the idle instrument too.
  bool found_zero = false;
  for (const auto& row : metrics_snapshot(true)) {
    found_zero |= row.name == "obs_test.snap_zero";
  }
  EXPECT_TRUE(found_zero);
}

// ---------------------------------------------------------------------------
// Determinism: totals thread-invariant, results unperturbed
// ---------------------------------------------------------------------------

/// A sweep whose task function is a pure function of its Point, counting
/// work items into obs instruments along the way.
engine::SweepResult<double> counted_sweep(std::size_t threads) {
  engine::Grid grid;
  grid.axis("x", {1.0, 2.0, 3.0, 4.0, 5.0})
      .axis("y", {0.25, 0.5, 0.75})
      .replicates(2)
      .base_seed(42);
  return engine::run_sweep(
      grid,
      [](const engine::Point& p) {
        static Counter& items = counter("obs_test.sweep_items");
        static Histogram& seeds =
            histogram("obs_test.sweep_seed_lsb", {64.0, 192.0});
        items.add();
        seeds.record(static_cast<double>(p.seed() % 256));
        double acc = 0.0;
        for (int i = 1; i <= 50; ++i) {
          acc += std::sin(p.value("x") * i) * std::cos(p.value("y") + i) /
                 static_cast<double>(i);
        }
        return acc + static_cast<double>(p.seed() % 1000) * 1e-12;
      },
      {.threads = threads});
}

TEST_F(ObsTest, CounterTotalsIdenticalAtEveryThreadCount) {
  set_metrics_enabled(true);
  std::vector<std::uint64_t> item_totals;
  std::vector<std::vector<std::uint64_t>> bucket_totals;
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    reset_metrics();
    (void)counted_sweep(threads);
    item_totals.push_back(counter("obs_test.sweep_items").value());
    bucket_totals.push_back(
        histogram("obs_test.sweep_seed_lsb", {}).counts());
  }
  for (std::size_t i = 1; i < item_totals.size(); ++i) {
    EXPECT_EQ(item_totals[i], item_totals[0]) << "thread config " << i;
    EXPECT_EQ(bucket_totals[i], bucket_totals[0]) << "thread config " << i;
  }
  EXPECT_EQ(item_totals[0], 30u);  // 5 x 3 axis points x 2 replicates
}

TEST_F(ObsTest, ResultsByteIdenticalWithInstrumentationOnAndOff) {
  const auto serialize_sweep = [](const engine::SweepResult<double>& sweep) {
    engine::ResultSet set;
    auto& table = set.add_table("sweep", "sweep", {"task", "value"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      table.row({engine::Value::integer(static_cast<std::int64_t>(i)),
                 engine::Value::real(sweep.at(i), 12)});
    }
    std::ostringstream os;
    engine::serialize(set, os);
    return os.str();
  };

  const std::string plain = serialize_sweep(counted_sweep(2));

  set_metrics_enabled(true);
  set_trace_enabled(true);
  for (const std::size_t threads : {1u, 4u, 0u}) {
    EXPECT_EQ(serialize_sweep(counted_sweep(threads)), plain)
        << "instrumented run diverged at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// DES instrumentation: per-kind event counters and the queue-depth histogram
// ---------------------------------------------------------------------------

namespace {

/// A small packet workload: 200 one-hop packets plus one generic closure.
/// Returns the delivery count (the result instrumentation must not change).
std::uint64_t des_metrics_workload(net::Simulator& sim) {
  net::Network network(sim, 2);
  const std::size_t l = network.add_duplex_link(0, 1, 1e9, 0.001);
  network.node(0).set_route(0, 1, &network.link(l));
  std::uint64_t delivered = 0;
  network.node(1).set_local_deliver([&](const net::Packet&) { ++delivered; });
  for (int i = 0; i < 200; ++i) {
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.size_bytes = 500;
    network.inject(p);
  }
  sim.schedule(0.01, [] {});
  sim.run();
  return delivered;
}

}  // namespace

TEST_F(ObsTest, DesEventCountersSplitByKind) {
  set_metrics_enabled(true);
  net::Simulator sim;
  const std::uint64_t delivered = des_metrics_workload(sim);
  EXPECT_EQ(delivered, 200u);
  EXPECT_EQ(counter("sim.events.link_deliver").value(),
            sim.events_processed(net::EventKind::kLinkDeliver));
  EXPECT_EQ(counter("sim.events.link_done").value(), 200u);
  EXPECT_EQ(counter("sim.events.closure").value(), 1u);
  EXPECT_EQ(counter("sim.events.udp_emit").value(), 0u);
  // The queue-depth histogram sampled (401 events / 64 per sample).
  std::uint64_t samples = 0;
  for (const std::uint64_t c : histogram("sim.queue_depth", {}).counts()) {
    samples += c;
  }
  EXPECT_GE(samples, 5u);
}

TEST_F(ObsTest, DesCountersStayZeroWhileDisabled) {
  ASSERT_FALSE(metrics_enabled());
  net::Simulator sim;
  (void)des_metrics_workload(sim);
  // The simulator still counts (events_processed is part of its API)...
  EXPECT_EQ(sim.events_processed(net::EventKind::kLinkDeliver), 200u);
  // ...but no obs instrument recorded anything.
  EXPECT_EQ(counter("sim.events.link_deliver").value(), 0u);
  std::uint64_t samples = 0;
  for (const std::uint64_t c : histogram("sim.queue_depth", {}).counts()) {
    samples += c;
  }
  EXPECT_EQ(samples, 0u);
}

TEST_F(ObsTest, DesResultsByteIdenticalWithInstrumentationOnAndOff) {
  const auto run_once = [] {
    net::Simulator sim;
    net::Network network(sim, 2);
    const std::size_t l = network.add_duplex_link(0, 1, 2e6, 0.003, 20);
    network.node(0).set_route(0, 1, &network.link(l));
    net::FlowMonitor monitor;
    install_udp_sink(network, 1, monitor);
    net::UdpCbrSource source(network, monitor, 7, 0, 1, 3e6);
    source.start(0.0, 0.1, 1234);
    sim.run_until(0.2);
    return std::pair<double, double>(monitor.mean_delay_s(),
                                     monitor.loss_rate());
  };
  const auto plain = run_once();
  set_metrics_enabled(true);
  const auto instrumented = run_once();
  EXPECT_EQ(0, std::memcmp(&plain.first, &instrumented.first,
                           sizeof(double)));
  EXPECT_EQ(0, std::memcmp(&plain.second, &instrumented.second,
                           sizeof(double)));
  EXPECT_GT(counter("sim.events.udp_emit").value(), 0u);
}

// ---------------------------------------------------------------------------
// Trace collection and Chrome JSON
// ---------------------------------------------------------------------------

/// Minimal JSON structural validator: accepts exactly the value grammar
/// (objects / arrays / strings with escapes / numbers / true / false /
/// null) and demands the whole input is one value. Enough to guarantee
/// Perfetto and chrome://tracing can parse the document.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(ch) < 0x20) return false;
      if (ch == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST_F(ObsTest, TraceCollectsMatchedSpansAcrossThreads) {
  set_trace_enabled(true);
  {
    const TraceSpan outer("obs_test.outer", "test");
    const TraceSpan inner("obs_test.inner", "test", "arg", 7.0);
    trace_instant("obs_test.marker", "test");
    trace_counter("obs_test.track", 1.5);
  }
  (void)counted_sweep(4);  // spans recorded from several worker threads
  set_trace_enabled(false);

  const auto events = trace_events();
  ASSERT_FALSE(events.empty());
  // Per-tid B/E stacks must balance with matching names.
  std::vector<std::vector<std::string>> stacks(64);
  for (const auto& event : events) {
    ASSERT_LT(event.tid, stacks.size());
    if (event.ph == 'B') {
      stacks[event.tid].push_back(event.name);
    } else if (event.ph == 'E') {
      ASSERT_FALSE(stacks[event.tid].empty()) << "E without B: " << event.name;
      EXPECT_EQ(stacks[event.tid].back(), event.name);
      stacks[event.tid].pop_back();
    }
  }
  for (const auto& stack : stacks) EXPECT_TRUE(stack.empty());
  // Timestamps are non-decreasing within each tid.
  std::vector<std::uint64_t> last_ts(64, 0);
  for (const auto& event : events) {
    EXPECT_GE(event.ts_ns, last_ts[event.tid]);
    last_ts[event.tid] = event.ts_ns;
  }
}

TEST_F(ObsTest, SpanEndsStayMatchedAcrossMidSpanDisable) {
  set_trace_enabled(true);
  {
    const TraceSpan span("obs_test.straddler", "test");
    set_trace_enabled(false);
  }
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const auto& event : trace_events()) {
    if (event.name != "obs_test.straddler") continue;
    begins += event.ph == 'B' ? 1 : 0;
    ends += event.ph == 'E' ? 1 : 0;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  set_trace_enabled(true);
  {
    const TraceSpan span("needs \"escaping\"\n\t\\", "test", "idx", 3.0);
    trace_instant("obs_test.instant", "test", "value", 0.5);
    trace_counter("obs_test.kkt", 1e-9);
  }
  (void)counted_sweep(2);
  set_trace_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // The escaped span name survives JSON encoding.
  EXPECT_NE(json.find("needs \\\"escaping\\\"\\n\\t\\\\"), std::string::npos);
  EXPECT_EQ(trace_dropped_events(), 0u);
}

TEST_F(ObsTest, ClearTraceDiscardsEvents) {
  set_trace_enabled(true);
  trace_instant("obs_test.gone");
  clear_trace();
  for (const auto& event : trace_events()) {
    EXPECT_NE(event.name, "obs_test.gone");
  }
}

}  // namespace
}  // namespace cisp::obs
