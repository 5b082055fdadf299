#include "net/flow/max_min.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace cisp::net::flow {

namespace detail {

namespace {

/// FNV-1a over a 64-bit word stream.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
}

}  // namespace

std::uint64_t warm_incidence_key(const SimTopologyView& view,
                                 const std::vector<graphs::Path>& paths,
                                 const std::vector<double>& demand_bps,
                                 bool demand_gated) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, demand_gated ? 0xa1fa5u : 0x3a3);
  mix(h, view.latency_graph.node_count());
  mix(h, view.latency_graph.edge_count());
  mix(h, paths.size());
  for (std::size_t f = 0; f < paths.size(); ++f) {
    mix(h, paths[f].nodes.size());
    for (const graphs::NodeId n : paths[f].nodes) mix(h, n);
    mix(h, paths[f].edges.size());
    for (const graphs::EdgeId e : paths[f].edges) mix(h, e);
    if (demand_gated) mix(h, demand_bps[f] > 0.0 ? 1u : 0u);
  }
  return h;
}

void ensure_incidence(const SimTopologyView& view,
                      const std::vector<graphs::Path>& paths,
                      const std::vector<double>& demand_bps,
                      bool demand_gated, WarmState& state) {
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  const std::uint64_t key =
      warm_incidence_key(view, paths, demand_bps, demand_gated);
  if (state.has_incidence && state.incidence_key == key &&
      state.flow_edges.size() == flows && state.edge_flows.size() == edges) {
    ++state.incidence_reuses;
    return;
  }
  state.flow_edges.assign(flows, {});
  state.edge_flows.assign(edges, {});
  for (std::size_t f = 0; f < flows; ++f) {
    CISP_REQUIRE(!paths[f].empty(), "flow is unroutable");
    state.flow_edges[f] = path_edges(view.latency_graph, paths[f]);
    if (demand_gated && demand_bps[f] <= 0.0) continue;
    for (const graphs::EdgeId eid : state.flow_edges[f]) {
      state.edge_flows[eid].push_back(static_cast<std::uint32_t>(f));
    }
  }
  state.incidence_key = key;
  state.has_incidence = true;
}

}  // namespace detail

Allocation max_min_allocate(const SimTopologyView& view,
                            const std::vector<graphs::Path>& paths,
                            const std::vector<double>& demand_bps,
                            const AllocatorOptions& options) {
  CISP_REQUIRE(paths.size() == demand_bps.size(),
               "paths/demands size mismatch");
  const obs::TraceSpan span("flow.max_min", "allocator", "flows",
                            static_cast<double>(paths.size()));
  const std::size_t flows = paths.size();
  const std::size_t edges = view.latency_graph.edge_count();
  CISP_REQUIRE(view.capacity_bps.size() == edges, "view arrays inconsistent");

  // Per-flow edge sequences and the edge -> flows incidence (freeze
  // lists). With a warm state the build is skipped when the fingerprint
  // matches the previous solve; the fill below runs identically on the
  // cached structure, so warm results are byte-identical to cold ones.
  WarmState scratch;
  WarmState& state = options.warm != nullptr ? *options.warm : scratch;
  detail::ensure_incidence(view, paths, demand_bps, /*demand_gated=*/false,
                           state);
  const auto& flow_edges = state.flow_edges;
  const auto& edge_flows = state.edge_flows;

  Allocation out;
  out.rate_bps.assign(flows, 0.0);
  out.edge_load_bps.assign(edges, 0.0);

  // Active flows (positive demand) in (demand, index) order: the demand
  // cursor and the demand-met window below walk this list.
  std::vector<char> active(flows, 0);
  std::vector<std::uint32_t> by_demand;
  std::vector<double> cap_rem = view.capacity_bps;
  std::vector<std::size_t> count(edges, 0);
  for (std::size_t f = 0; f < flows; ++f) {
    CISP_REQUIRE(std::isfinite(demand_bps[f]), "demand must be finite");
    if (demand_bps[f] <= 0.0) continue;
    active[f] = 1;
    by_demand.push_back(static_cast<std::uint32_t>(f));
    for (const graphs::EdgeId eid : flow_edges[f]) ++count[eid];
  }
  std::sort(by_demand.begin(), by_demand.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return demand_bps[a] != demand_bps[b]
                         ? demand_bps[a] < demand_bps[b]
                         : a < b;
            });
  std::size_t active_flows = by_demand.size();
  // Edges some active flow crosses, ascending; compacted after each freeze.
  std::vector<graphs::EdgeId> live;
  for (std::size_t e = 0; e < edges; ++e) {
    if (count[e] > 0) live.push_back(static_cast<graphs::EdgeId>(e));
  }

  // Saturation slack: relative to each edge's capacity so Gbps-scale links
  // and unit-test-scale links both converge.
  const auto saturated = [&](std::size_t e) {
    return cap_rem[e] <= view.capacity_bps[e] * 1e-9;
  };

  // Every active flow sits at the water level: all start at 0 and receive
  // the same `+= h` sequence, so one running sum stands for all of them and
  // a flow's rate is the level at the round it freezes.
  double level = 0.0;
  std::size_t cursor = 0;  // first active entry of by_demand
  std::vector<std::uint32_t> freeze;
  while (active_flows > 0) {
    ++out.rounds;
    CISP_REQUIRE(out.rounds <= flows + edges + 1,
                 "progressive filling failed to converge");

    // The next event: an edge saturates or a flow reaches its demand.
    // fl(d - level) is monotone in d, so the lowest active demand gives
    // the minimum over all active flows.
    double h_edge = std::numeric_limits<double>::infinity();
    for (const graphs::EdgeId e : live) {
      h_edge = std::min(h_edge, cap_rem[e] / static_cast<double>(count[e]));
    }
    while (!active[by_demand[cursor]]) ++cursor;
    const double h_demand = demand_bps[by_demand[cursor]] - level;
    const double h = std::max(0.0, std::min(h_edge, h_demand));

    // Raise the water level.
    level += h;
    for (const graphs::EdgeId e : live) {
      cap_rem[e] -= h * static_cast<double>(count[e]);
    }

    // Freeze bottlenecked flows and demand-capped flows. A flow whose
    // demand exceeds level * (1 + 1e-6) is more than 1e-12 * demand away
    // from it, so the demand-met test only runs over that window. A flow
    // listed twice (on two saturated edges, or also demand-met) freezes
    // once, so shared edges decrement exactly once per frozen flow.
    freeze.clear();
    for (const graphs::EdgeId e : live) {
      if (!saturated(e)) continue;
      ++out.bottleneck_edges;
      freeze.insert(freeze.end(), edge_flows[e].begin(), edge_flows[e].end());
    }
    const double window = level * (1.0 + 1e-6);
    for (std::size_t i = cursor;
         i < by_demand.size() && demand_bps[by_demand[i]] <= window; ++i) {
      const std::uint32_t f = by_demand[i];
      if (active[f] && demand_bps[f] - level <= demand_bps[f] * 1e-12) {
        freeze.push_back(f);
      }
    }
    CISP_REQUIRE(!freeze.empty(), "round froze no flow");
    for (const std::uint32_t f : freeze) {
      if (!active[f]) continue;
      active[f] = 0;
      out.rate_bps[f] = level;
      --active_flows;
      for (const graphs::EdgeId eid : flow_edges[f]) --count[eid];
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](graphs::EdgeId e) { return count[e] == 0; }),
               live.end());
  }

  // Edge loads from the final rates: per-edge sums over incidence lists in
  // list order.
  for (std::size_t e = 0; e < edges; ++e) {
    double load = 0.0;
    for (const std::uint32_t f : edge_flows[e]) load += out.rate_bps[f];
    out.edge_load_bps[e] = load;
  }
  out.fill_rounds = out.rounds;
  static obs::Counter& round_counter = obs::counter("flow.max_min.rounds");
  round_counter.add(out.rounds);
  return out;
}

}  // namespace cisp::net::flow
