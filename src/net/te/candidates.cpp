#include "net/te/candidates.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "engine/executor.hpp"
#include "geo/latlon.hpp"
#include "graph/ksp.hpp"
#include "graph/mcf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::net::te {

namespace {

/// Successive node-disjoint paths gathered per pair.
constexpr std::size_t kDisjointPaths = 2;
/// Garg-Könemann accuracy of the MCF sub-solve.
constexpr double kMcfEpsilon = 0.25;

std::uint64_t mix_double(std::uint64_t h, double v) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

/// One pinned realization of a node-sequence candidate.
struct PinnedPath {
  graphs::Path path;
  double stretch = 0.0;
};

/// (length, nodes, edges) lexicographic — the canonical candidate order.
bool pinned_less(const PinnedPath& a, const PinnedPath& b) {
  if (a.path.length != b.path.length) return a.path.length < b.path.length;
  if (a.path.nodes != b.path.nodes) return a.path.nodes < b.path.nodes;
  return a.path.edges < b.path.edges;
}

bool pinned_equal(const PinnedPath& a, const PinnedPath& b) {
  return a.path.nodes == b.path.nodes && a.path.edges == b.path.edges;
}

/// Pins a node sequence onto the view's graph: the min-latency arc per
/// hop, plus — where any hop has a parallel arc with strictly more
/// capacity — one max-capacity realization. Appends 1 or 2 variants.
void pin_variants(const SimTopologyView& view, const graphs::Path& raw,
                  double direct_s, std::vector<PinnedPath>& out) {
  const graphs::Graph& graph = view.latency_graph;
  graphs::Path fast;
  graphs::Path fat;
  fast.nodes = raw.nodes;
  fat.nodes = raw.nodes;
  bool distinct = false;
  for (std::size_t i = 0; i + 1 < raw.nodes.size(); ++i) {
    graphs::EdgeId fast_arc = graphs::kNoEdge;
    graphs::EdgeId fat_arc = graphs::kNoEdge;
    for (const graphs::EdgeId eid : graph.out_edges(raw.nodes[i])) {
      const graphs::Edge& e = graph.edge(eid);
      if (e.to != raw.nodes[i + 1]) continue;
      if (fast_arc == graphs::kNoEdge ||
          e.weight < graph.edge(fast_arc).weight) {
        fast_arc = eid;
      }
      if (fat_arc == graphs::kNoEdge ||
          view.capacity_bps[eid] > view.capacity_bps[fat_arc]) {
        fat_arc = eid;
      }
    }
    CISP_REQUIRE(fast_arc != graphs::kNoEdge,
                 "candidate path hop has no edge");
    fast.edges.push_back(fast_arc);
    fast.length += graph.edge(fast_arc).weight;
    fat.edges.push_back(fat_arc);
    fat.length += graph.edge(fat_arc).weight;
    distinct = distinct || fat_arc != fast_arc;
  }
  const auto stretch_of = [direct_s](double length) {
    return direct_s > 0.0 ? length / direct_s : 1.0;
  };
  out.push_back({std::move(fast), 0.0});
  out.back().stretch = stretch_of(out.back().path.length);
  if (distinct) {
    out.push_back({std::move(fat), 0.0});
    out.back().stretch = stretch_of(out.back().path.length);
  }
}

/// Sort + dedup + stretch-filter one pair's variant pool into its final
/// candidate list. The sorted front (the pair's latency-shortest pinned
/// path) is exempt from the bound.
PairCandidates finalize_pool(std::vector<PinnedPath> pool,
                             double max_stretch) {
  std::sort(pool.begin(), pool.end(), pinned_less);
  pool.erase(std::unique(pool.begin(), pool.end(), pinned_equal),
             pool.end());
  PairCandidates out;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i > 0 && pool[i].stretch > max_stretch + 1e-12) continue;
    out.paths.push_back(std::move(pool[i].path));
    out.stretch.push_back(pool[i].stretch);
  }
  return out;
}

}  // namespace

std::uint64_t candidate_key(const SimTopologyView& view,
                            const std::vector<TrafficDemand>& demands,
                            const CandidateOptions& options) {
  // FNV-style chain over everything the gather reads; same idiom as
  // flow::detail::warm_incidence_key. A collision only costs a wrong
  // cache hit in SplitWarmState, and 64-bit mixing makes that as likely
  // as the allocator's incidence cache colliding — accepted there too.
  std::uint64_t h = 0x7e5f00d5u;
  h = hash_combine(h, view.latency_graph.node_count());
  h = hash_combine(h, view.latency_graph.edge_count());
  for (const graphs::Edge& e : view.latency_graph.edges()) {
    h = hash_combine(h, e.from);
    h = hash_combine(h, e.to);
    h = mix_double(h, e.weight);
  }
  for (const double c : view.capacity_bps) h = mix_double(h, c);
  h = hash_combine(h, demands.size());
  for (const TrafficDemand& d : demands) {
    h = hash_combine(h, d.src);
    h = hash_combine(h, d.dst);
    h = mix_double(h, d.rate_bps);
  }
  h = hash_combine(h, options.k_shortest);
  h = mix_double(h, options.max_stretch);
  h = hash_combine(h, options.mcf_pairs);
  return h;
}

CandidateSet generate_candidates(const SimTopologyView& view,
                                 const std::vector<TrafficDemand>& demands,
                                 const flow::DirectKmFn& direct_km,
                                 const CandidateOptions& options,
                                 std::size_t threads) {
  CISP_REQUIRE(options.k_shortest >= 1,
               "candidate gathering needs k_shortest >= 1");
  CandidateSet set;
  set.key = candidate_key(view, demands, options);
  set.pairs.resize(demands.size());

  // Latency-pure generators, one independent slot per pair.
  const auto gather_pair = [&](std::size_t f) {
    const TrafficDemand& d = demands[f];
    const double direct_s =
        direct_km(d.src, d.dst) / geo::kSpeedOfLightKmPerS;
    std::vector<PinnedPath> pool;
    for (const graphs::Path& raw : graphs::yen_ksp(
             view.latency_graph, d.src, d.dst, options.k_shortest)) {
      pin_variants(view, raw, direct_s, pool);
    }
    for (const graphs::Path& raw : graphs::node_disjoint_paths(
             view.latency_graph, d.src, d.dst, kDisjointPaths)) {
      pin_variants(view, raw, direct_s, pool);
    }
    CISP_REQUIRE(!pool.empty(), "demand pair is not routable");
    set.pairs[f] = finalize_pool(std::move(pool), options.max_stretch);
  };
  const std::size_t workers =
      threads == 0 ? engine::default_thread_count() : threads;
  if (workers > 1 && demands.size() > 1) {
    engine::Executor executor(workers);
    engine::parallel_for(executor, demands.size(), gather_pair);
  } else {
    for (std::size_t f = 0; f < demands.size(); ++f) gather_pair(f);
  }

  // MCF stage: one global solve over the heaviest pairs, serial (its
  // result feeds per-pair pools, but the solve itself is a single
  // deterministic computation — thread count never touches it).
  if (options.mcf_pairs > 0 && !demands.empty()) {
    std::vector<std::size_t> order(demands.size());
    for (std::size_t f = 0; f < order.size(); ++f) order[f] = f;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (demands[a].rate_bps != demands[b].rate_bps) {
        return demands[a].rate_bps > demands[b].rate_bps;
      }
      return a < b;
    });

    // Capacity graph: same shape, weights = gather capacities;
    // zero-capacity arcs are omitted (MCF requires positive capacities).
    graphs::Graph cap_graph(view.latency_graph.node_count());
    for (graphs::EdgeId eid = 0; eid < view.latency_graph.edge_count();
         ++eid) {
      if (view.capacity_bps[eid] <= 0.0) continue;
      const graphs::Edge& e = view.latency_graph.edge(eid);
      cap_graph.add_edge(e.from, e.to, view.capacity_bps[eid]);
    }

    std::vector<std::size_t> chosen;
    std::vector<graphs::Demand> mcf_demands;
    for (const std::size_t f : order) {
      if (chosen.size() >= options.mcf_pairs) break;
      if (demands[f].rate_bps <= 0.0) break;  // rate-sorted: rest are too
      // MCF throws on unroutable commodities; a pair whose endpoints the
      // positive-capacity subgraph disconnects simply keeps its
      // latency-pure pool.
      if (graphs::shortest_path(cap_graph, demands[f].src, demands[f].dst)
              .empty()) {
        continue;
      }
      chosen.push_back(f);
      mcf_demands.push_back(
          {demands[f].src, demands[f].dst, demands[f].rate_bps});
    }
    if (!mcf_demands.empty()) {
      const graphs::McfResult mcf = graphs::max_concurrent_flow(
          cap_graph, mcf_demands, kMcfEpsilon);
      set.mcf_lambda = mcf.lambda;
      for (std::size_t k = 0; k < chosen.size(); ++k) {
        const graphs::Path& raw = mcf.primary_path[k];
        if (raw.empty()) continue;
        const std::size_t f = chosen[k];
        const TrafficDemand& d = demands[f];
        const double direct_s =
            direct_km(d.src, d.dst) / geo::kSpeedOfLightKmPerS;
        // Re-pin on the latency graph (MCF paths are node sequences over
        // the capacity graph) and re-finalize the pool; MCF proposals get
        // no stretch exemption — only the latency-shortest front does.
        std::vector<PinnedPath> pool;
        pin_variants(view, raw, direct_s, pool);
        PairCandidates& pair = set.pairs[f];
        for (std::size_t i = 0; i < pair.paths.size(); ++i) {
          pool.push_back({std::move(pair.paths[i]), pair.stretch[i]});
        }
        set.pairs[f] = finalize_pool(std::move(pool), options.max_stretch);
      }
    }
  }
  return set;
}

}  // namespace cisp::net::te
