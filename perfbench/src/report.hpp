#pragma once
// Measurement helpers of the repository benchmark: the metric catalog,
// percentiles with their sample support, span self times from an obs trace,
// and the one-line JSON result the benchmark prints last.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// A metric as BENCHMARK.json names it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// One measured value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json
/// "end_to_end", same order).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run prints (BENCHMARK.json
/// "per_layer", same order).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; `samples` must be non-empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// A percentile together with the sample support behind it.
struct SupportedPercentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples ranked above the percentile's nearest rank.
  std::size_t beyond = 0;
};

/// The highest of `candidates` whose nearest rank leaves at least
/// `min_beyond` samples above it, with its value and the sample count;
/// nullopt when not even the lowest candidate is supported.
[[nodiscard]] std::optional<SupportedPercentile> highest_supported_percentile(
    std::vector<double> samples,
    const std::vector<double>& candidates = {50.0, 90.0, 99.0, 99.9},
    std::size_t min_beyond = 10);

/// Time of every span name in a trace: wall time inside the span and its
/// self time (the span minus the part of it its child spans on the same
/// thread cover), summed over all occurrences.
struct SpanTime {
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, SpanTime> span_times(
    const std::vector<cisp::obs::TraceEvent>& events);

/// How much of the first span named `window` the spans of category `cat`
/// on the same thread cover (their union, clipped to the window).
struct Coverage {
  std::uint64_t window_ns = 0;
  std::uint64_t covered_ns = 0;
};
[[nodiscard]] Coverage span_coverage(
    const std::vector<cisp::obs::TraceEvent>& events,
    const std::string& window, const std::string& cat);

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics ({"name": {"value", "unit"}}).
/// Values keep every digit (shortest round-trip form); a non-finite value
/// throws, since JSON cannot carry it.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Orders `measured` as `catalog` lists it, checking that both name the
/// same metrics with the same units; throws on any mismatch.
[[nodiscard]] std::vector<Metric> in_catalog_order(
    const std::vector<MetricSpec>& catalog,
    const std::map<std::string, double>& measured);

}  // namespace perfbench
