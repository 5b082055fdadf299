#include "net/flow/multipath.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geo/latlon.hpp"
#include "net/flow/alpha_fair.hpp"
#include "util/error.hpp"

namespace cisp::net::flow {

namespace {

/// Stale-route guard: a timeline re-submitting last epoch's routes against
/// this epoch's plan would otherwise walk out-of-range edge ids straight
/// into UB. Unpinned paths are resolved per hop by path_edges(), which
/// throws on a missing arc.
void validate_path(const SimTopologyView& view, const PairDemand& pair,
                   const graphs::Path& path) {
  const std::size_t nodes = view.latency_graph.node_count();
  const std::size_t edges = view.latency_graph.edge_count();
  CISP_REQUIRE(path.nodes.front() == pair.src && path.nodes.back() == pair.dst,
               "route endpoints do not match the demand pair");
  for (const graphs::NodeId n : path.nodes) {
    CISP_REQUIRE(n < nodes, "route references a node outside the run's plan");
  }
  if (path.edges.empty()) return;
  CISP_REQUIRE(path.edges.size() + 1 == path.nodes.size(),
               "route path has inconsistent edge pinning");
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    const graphs::EdgeId eid = path.edges[i];
    CISP_REQUIRE(eid < edges,
                 "route references an edge outside the run's plan");
    const graphs::Edge& edge = view.latency_graph.edge(eid);
    CISP_REQUIRE(edge.from == path.nodes[i] && edge.to == path.nodes[i + 1],
                 "route path is stale for the run's plan");
  }
}

}  // namespace

SubflowExpansion expand_multipath(const DemandMatrix& demands,
                                  MultipathRouteSet routes) {
  CISP_REQUIRE(routes.pair_paths.size() == demands.pairs().size(),
               "route set must cover every demand pair");
  SubflowExpansion out;
  std::size_t subflows = 0;
  for (const auto& set : routes.pair_paths) subflows += set.size();
  out.paths.reserve(subflows);
  out.demand_bps.reserve(subflows);
  out.weights.reserve(subflows);
  out.pair_of.reserve(subflows);
  for (std::size_t f = 0; f < routes.pair_paths.size(); ++f) {
    const PairDemand& pair = demands.pairs()[f];
    double weight_sum = 0.0;
    for (const net::WeightedPath& wp : routes.pair_paths[f]) {
      weight_sum += wp.weight;
    }
    CISP_REQUIRE(routes.pair_paths[f].empty() ||
                     std::abs(weight_sum - 1.0) <= 1e-6,
                 "a pair's multipath split weights must sum to 1");
    for (net::WeightedPath& wp : routes.pair_paths[f]) {
      CISP_REQUIRE(!wp.path.empty(),
                   "route set entries must be non-empty paths "
                   "(denied pairs have an empty SET, not an empty path)");
      CISP_REQUIRE(std::isfinite(wp.weight) && wp.weight > 0.0,
                   "multipath split weights must be positive and finite");
      out.paths.push_back(std::move(wp.path));
      out.demand_bps.push_back(pair.rate_bps * wp.weight);
      out.weights.push_back(
          static_cast<double>(std::max<std::uint64_t>(1, pair.users)) *
          wp.weight);
      out.pair_of.push_back(static_cast<std::uint32_t>(f));
    }
  }
  return out;
}

Realization realize_routes(const SimTopologyView& view,
                           const DemandMatrix& demands,
                           MultipathRouteSet routes,
                           const DirectKmFn& direct_km,
                           const RealizeOptions& options) {
  const SubflowExpansion expansion =
      expand_multipath(demands, std::move(routes));
  const auto& pairs = demands.pairs();
  const std::size_t subflows = expansion.paths.size();
  Realization out;

  // Per-subflow path latency plus the offered-load predictions.
  std::vector<double> latency_s(subflows, 0.0);
  {
    std::vector<double> load_bps(view.capacity_bps.size(), 0.0);
    double latency_acc = 0.0;
    double rate_acc = 0.0;
    for (std::size_t s = 0; s < subflows; ++s) {
      validate_path(view, pairs[expansion.pair_of[s]], expansion.paths[s]);
      for (const graphs::EdgeId eid :
           path_edges(view.latency_graph, expansion.paths[s])) {
        latency_s[s] += view.latency_graph.edge(eid).weight;
        load_bps[eid] += expansion.demand_bps[s];
      }
      latency_acc += latency_s[s] * expansion.demand_bps[s];
      rate_acc += expansion.demand_bps[s];
    }
    out.mean_path_latency_s = rate_acc > 0.0 ? latency_acc / rate_acc : 0.0;
    for (std::size_t e = 0; e < load_bps.size(); ++e) {
      if (view.capacity_bps[e] <= 0.0) continue;
      out.predicted_max_utilization = std::max(
          out.predicted_max_utilization, load_bps[e] / view.capacity_bps[e]);
    }
  }

  Allocation allocation;
  if (subflows == 0) {
    allocation.edge_load_bps.assign(view.capacity_bps.size(), 0.0);
  } else if (options.elastic) {
    ElasticOptions elastic;
    elastic.alpha = options.alpha;
    elastic.threads = options.threads;
    elastic.warm = options.warm;
    allocation = alpha_fair_allocate(view, expansion.paths,
                                     expansion.demand_bps, expansion.weights,
                                     elastic);
  } else {
    AllocatorOptions alloc_options;
    alloc_options.warm = options.warm;
    allocation = max_min_allocate(view, expansion.paths, expansion.demand_bps,
                                  alloc_options);
  }

  // Fold back to pair grain. Subflows are demand-major, so each pair's
  // subflows are one contiguous run starting at `first`.
  std::vector<double> pair_rate_bps(pairs.size(), 0.0);
  out.outcomes.resize(pairs.size());
  std::size_t s = 0;
  for (std::size_t f = 0; f < pairs.size(); ++f) {
    const std::size_t first = s;
    double latency_acc = 0.0;
    double offered_latency_acc = 0.0;
    double offered_acc = 0.0;
    for (; s < subflows && expansion.pair_of[s] == f; ++s) {
      pair_rate_bps[f] += allocation.rate_bps[s];
      latency_acc += latency_s[s] * allocation.rate_bps[s];
      offered_latency_acc += latency_s[s] * expansion.demand_bps[s];
      offered_acc += expansion.demand_bps[s];
    }
    PairOutcome& row = out.outcomes[f];
    row.src = pairs[f].src;
    row.dst = pairs[f].dst;
    row.users = pairs[f].users;
    row.offered_bps = pairs[f].rate_bps;
    row.delivered_bps = pair_rate_bps[f];
    if (s == first) {
      ++out.denied_pairs;
      continue;
    }
    // One path: its latency exactly ((L * d) / d need not round to L).
    if (s - first == 1) {
      row.latency_s = latency_s[first];
    } else if (row.delivered_bps > 0.0) {
      row.latency_s = latency_acc / row.delivered_bps;
    } else if (offered_acc > 0.0) {
      row.latency_s = offered_latency_acc / offered_acc;
    }
    const double direct_s =
        direct_km(row.src, row.dst) / geo::kSpeedOfLightKmPerS;
    row.stretch = direct_s > 0.0 ? row.latency_s / direct_s : 1.0;
  }
  allocation.rate_bps = std::move(pair_rate_bps);
  out.allocation = std::move(allocation);
  out.stats = summarize(view, out.outcomes, out.allocation);
  return out;
}

}  // namespace cisp::net::flow
