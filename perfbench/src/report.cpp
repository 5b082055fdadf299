#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},           {"design_s", "s"},
      {"design_stretch", "ratio"}, {"epoch_ms_p50", "ms"},
      {"epoch_ms_p90", "ms"},     {"timeline_s", "s"},
      {"served_pct", "%"},        {"stretch_p99", "ratio"},
      {"des_s", "s"},             {"des_delay_err_pct", "%"},
      {"peak_rss_mb", "MB"},      {"ok_pct", "%"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"terrain.raster_s", "s"},
      {"terrain.cells", "count"},
      {"infra.towers_s", "s"},
      {"infra.towers", "count"},
      {"design.hop_graph_s", "s"},
      {"design.hops", "count"},
      {"design.problem_s", "s"},
      {"design.candidates", "count"},
      {"design.greedy_s", "s"},
      {"design.links_built", "count"},
      {"design.capacity_s", "s"},
      {"greedy.heap_fill_ms", "ms"},
      {"greedy.budget_fill_ms", "ms"},
      {"greedy.swap_refine_ms", "ms"},
      {"greedy.rescore", "count"},
      {"greedy.swap_rounds", "count"},
      {"weather.rainfield_s", "s"},
      {"timeline.quiet_step_ms_p50", "ms"},
      {"timeline.churn_step_ms_p50", "ms"},
      {"timeline.churn_epochs", "count"},
      {"te.split_ms", "ms"},
      {"te.solution_reuse_ratio", "ratio"},
      {"te.candidate_reuse_ratio", "ratio"},
      {"te.lp_fallbacks", "count"},
      {"flow.max_min_ms", "ms"},
      {"flow.max_min.rounds", "count"},
      {"control.repair_ms", "ms"},
      {"control.repair.touched_pairs", "count"},
      {"control.repair.changed_pairs", "count"},
      {"control.repair.changed_ratio", "ratio"},
      {"des.cell_ms", "ms"},
      {"des.flows", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
  };
  return kMetrics;
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<SupportedPercentile> highest_supported_percentile(
    std::vector<double> samples, const std::vector<double>& candidates,
    std::size_t min_beyond) {
  std::optional<SupportedPercentile> best;
  if (samples.empty()) return best;
  std::sort(samples.begin(), samples.end());
  for (const double p : candidates) {
    const std::size_t rank = nearest_rank(samples.size(), p);
    const std::size_t beyond = samples.size() - rank;
    if (beyond < min_beyond) continue;
    if (!best || p > best->percentile) {
      best = SupportedPercentile{p, samples[rank - 1], samples.size(), beyond};
    }
  }
  return best;
}

std::map<std::string, SpanTime> span_times(
    const std::vector<cisp::obs::TraceEvent>& events) {
  struct Open {
    const std::string* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::map<std::string, SpanTime> out;
  for (const cisp::obs::TraceEvent& event : events) {
    if (event.ph == 'B') {
      stacks[event.tid].push_back({&event.name, event.ts_ns, 0});
    } else if (event.ph == 'E') {
      auto& stack = stacks[event.tid];
      if (stack.empty()) continue;  // begun before tracing was enabled
      const Open open = stack.back();
      stack.pop_back();
      const std::uint64_t duration =
          event.ts_ns > open.start_ns ? event.ts_ns - open.start_ns : 0;
      SpanTime& time = out[*open.name];
      time.total_ns += duration;
      time.self_ns += duration - std::min(duration, open.child_ns);
      ++time.count;
      if (!stack.empty()) stack.back().child_ns += duration;
    }
  }
  return out;
}

Coverage span_coverage(const std::vector<cisp::obs::TraceEvent>& events,
                       const std::string& window, const std::string& cat) {
  // Locate the window span, then collect the category's spans on its
  // thread (per-thread B/E records nest, so a stack pairs them).
  std::optional<std::uint32_t> tid;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  for (const cisp::obs::TraceEvent& event : events) {
    if (event.name != window) continue;
    if (event.ph == 'B' && !tid) {
      tid = event.tid;
      window_begin = event.ts_ns;
    } else if (event.ph == 'E' && tid && event.tid == *tid) {
      window_end = event.ts_ns;
      break;
    }
  }
  Coverage coverage;
  if (!tid || window_end <= window_begin) return coverage;
  coverage.window_ns = window_end - window_begin;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  std::vector<std::pair<std::uint64_t, bool>> stack;  // (start, in cat)
  for (const cisp::obs::TraceEvent& event : events) {
    if (event.tid != *tid) continue;
    if (event.ph == 'B') {
      stack.emplace_back(event.ts_ns, event.cat == cat);
    } else if (event.ph == 'E' && !stack.empty()) {
      const auto [start, in_cat] = stack.back();
      stack.pop_back();
      const std::uint64_t begin = std::max(start, window_begin);
      const std::uint64_t end = std::min(event.ts_ns, window_end);
      if (in_cat && end > begin) intervals.emplace_back(begin, end);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t reach = 0;
  for (const auto& [begin, end] : intervals) {
    const std::uint64_t from = std::max(begin, reach);
    if (end > from) coverage.covered_ns += end - from;
    reach = std::max(reach, end);
  }
  return coverage;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite metric value");
  }
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) throw std::runtime_error("number formatting failed");
  return std::string(buffer, end);
}

}  // namespace

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::vector<Metric> in_catalog_order(
    const std::vector<MetricSpec>& catalog,
    const std::map<std::string, double>& measured) {
  std::vector<Metric> out;
  std::set<std::string> seen;
  for (const MetricSpec& spec : catalog) {
    const auto it = measured.find(spec.name);
    if (it == measured.end()) {
      throw std::logic_error("metric not measured: " + spec.name);
    }
    out.push_back({spec.name, spec.unit, it->second});
    seen.insert(spec.name);
  }
  for (const auto& [name, value] : measured) {
    if (!seen.count(name)) {
      throw std::logic_error("metric outside the catalog: " + name);
    }
  }
  return out;
}

}  // namespace perfbench
