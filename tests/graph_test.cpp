// Unit and property tests for src/graph: Dijkstra against brute force,
// Yen's k-shortest paths, disjoint paths, Dinic max-flow against known
// instances, and the Garg-Könemann max concurrent flow solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/ksp.hpp"
#include "graph/mcf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cisp::graphs {
namespace {

Graph diamond() {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3, with a direct 0 -> 3.
  Graph g(4);
  g.add_undirected(0, 1, 1.0);
  g.add_undirected(1, 3, 1.0);
  g.add_undirected(0, 2, 2.0);
  g.add_undirected(2, 3, 2.0);
  g.add_undirected(0, 3, 5.0);
  return g;
}

TEST(Graph, EdgeBookkeeping) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.edge(e).from, 0u);
  EXPECT_EQ(g.edge(e).to, 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  const EdgeId u = g.add_undirected(1, 2, 1.0);
  EXPECT_EQ(g.edge(u + 1).from, 2u);  // reverse arc invariant
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_edges(1).size(), 1u);  // 0->1 is directed; only 1->2 leaves node 1
}

TEST(Graph, RejectsInvalidEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), cisp::Error);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), cisp::Error);
}

TEST(Dijkstra, DiamondShortestPath) {
  const Graph g = diamond();
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  const Path p = extract_path(g, tree, 3);
  EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(p.length, 2.0);
}

TEST(Dijkstra, MaskDisablesEdges) {
  const Graph g = diamond();
  // Disable both arcs of the 0-1 edge (ids 0 and 1).
  const auto mask = [](EdgeId e) { return e > 1; };
  const Path p = shortest_path(g, 0, 3, mask);
  EXPECT_DOUBLE_EQ(p.length, 4.0);
  EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, UnreachableGivesEmptyPath) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_FALSE(tree.reached(2));
  EXPECT_TRUE(extract_path(g, tree, 2).empty());
}

TEST(Dijkstra, PinnedPathFollowsTheTreeNotACheaperMaskedParallelArc) {
  // 0 -> 1 -> 2 with a cheap and a dear arc side by side on each hop; the
  // cheap ones (ids 0 and 2) are masked, as a downed MW hop beside fiber.
  Graph g(3);
  g.add_edge(0, 1, 1.0);  // 0: masked
  g.add_edge(0, 1, 5.0);  // 1
  g.add_edge(1, 2, 1.0);  // 2: masked
  g.add_edge(1, 2, 7.0);  // 3
  const auto mask = [](EdgeId e) { return e == 1 || e == 3; };
  const auto tree = dijkstra(g, 0, mask);
  const Path p = extract_pinned_path(g, tree, 2);
  EXPECT_EQ(p.nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(p.edges, (std::vector<EdgeId>{1, 3}));
  EXPECT_DOUBLE_EQ(p.length, 12.0);
  // The unmasked search pins the cheap arcs; unreached targets stay empty.
  EXPECT_EQ(extract_pinned_path(g, dijkstra(g, 0), 2).edges,
            (std::vector<EdgeId>{0, 2}));
  EXPECT_TRUE(extract_pinned_path(g, dijkstra(g, 1), 0).empty());
  EXPECT_TRUE(extract_pinned_path(g, tree, 0).edges.empty());
}

TEST(Dijkstra, MatchesBellmanFordProperty) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 30;
    Graph g(n);
    for (int e = 0; e < 150; ++e) {
      const auto a = static_cast<NodeId>(rng.uniform_index(n));
      const auto b = static_cast<NodeId>(rng.uniform_index(n));
      if (a != b) g.add_edge(a, b, rng.uniform(0.1, 10.0));
    }
    const auto tree = dijkstra(g, 0);
    // Bellman-Ford reference.
    std::vector<double> dist(n, kUnreachable);
    dist[0] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Edge& e : g.edges()) {
        if (dist[e.from] + e.weight < dist[e.to]) {
          dist[e.to] = dist[e.from] + e.weight;
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (dist[v] == kUnreachable) {
        EXPECT_FALSE(tree.reached(v));
      } else {
        EXPECT_NEAR(tree.dist[v], dist[v], 1e-9);
      }
    }
  }
}

TEST(Dijkstra, EarlyExitMatchesFullRun) {
  Rng rng(43);
  Graph g(50);
  for (int e = 0; e < 300; ++e) {
    const auto a = static_cast<NodeId>(rng.uniform_index(50));
    const auto b = static_cast<NodeId>(rng.uniform_index(50));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 5.0));
  }
  const auto full = dijkstra(g, 0);
  for (NodeId t = 1; t < 50; ++t) {
    const Path p = shortest_path(g, 0, t);
    if (full.reached(t)) {
      EXPECT_NEAR(p.length, full.dist[t], 1e-9);
    } else {
      EXPECT_TRUE(p.empty());
    }
  }
}

TEST(Yen, EnumeratesDiamondPathsInOrder) {
  const Graph g = diamond();
  const auto paths = yen_ksp(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 4.0);
  EXPECT_DOUBLE_EQ(paths[2].length, 5.0);
}

TEST(Yen, PathsAreLooplessAndSorted) {
  Rng rng(47);
  Graph g(20);
  for (int e = 0; e < 100; ++e) {
    const auto a = static_cast<NodeId>(rng.uniform_index(20));
    const auto b = static_cast<NodeId>(rng.uniform_index(20));
    if (a != b) g.add_undirected(a, b, rng.uniform(1.0, 10.0));
  }
  const auto paths = yen_ksp(g, 0, 19, 8);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::vector<NodeId> sorted = paths[i].nodes;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "loop in path " << i;
    if (i > 0) {
      EXPECT_GE(paths[i].length, paths[i - 1].length - 1e-9);
    }
  }
  // All returned paths distinct.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i].nodes, paths[j].nodes);
    }
  }
}

TEST(Yen, UnreachableTargetReturnsEmpty) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(yen_ksp(g, 0, 2, 4).empty());
}

TEST(Yen, RejectsZeroK) {
  const Graph g = diamond();
  EXPECT_THROW(yen_ksp(g, 0, 3, 0), cisp::Error);
}

TEST(Yen, MaskedEdgesAreInvisibleToEveryAlternative) {
  const Graph g = diamond();
  // Disable both arcs of the 0-1 edge (ids 0 and 1): every path through
  // node 1 must vanish, not just the shortest.
  const auto mask = [](EdgeId e) { return e > 1; };
  const auto paths = yen_ksp(g, 0, 3, 5, mask);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(paths[0].length, 4.0);
  EXPECT_EQ(paths[1].nodes, (std::vector<NodeId>{0, 3}));
  for (const auto& p : paths) {
    for (const NodeId v : p.nodes) EXPECT_NE(v, 1u);
  }
}

TEST(NodeDisjoint, ParallelChainsFoundInLengthOrder) {
  // Three node-disjoint chains of lengths 2, 3, 4 between 0 and 9.
  Graph g(10);
  g.add_undirected(0, 1, 1.0);
  g.add_undirected(1, 9, 1.0);  // chain A: length 2
  g.add_undirected(0, 2, 1.0);
  g.add_undirected(2, 3, 1.0);
  g.add_undirected(3, 9, 1.0);  // chain B: length 3
  g.add_undirected(0, 4, 1.0);
  g.add_undirected(4, 5, 1.0);
  g.add_undirected(5, 6, 1.0);
  g.add_undirected(6, 9, 1.0);  // chain C: length 4
  const auto paths = node_disjoint_paths(g, 0, 9, 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].length, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].length, 4.0);
  // Disjointness of interiors.
  std::vector<NodeId> interior;
  for (const auto& p : paths) {
    for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
      interior.push_back(p.nodes[i]);
    }
  }
  std::sort(interior.begin(), interior.end());
  EXPECT_TRUE(std::adjacent_find(interior.begin(), interior.end()) ==
              interior.end());
}

TEST(NodeDisjoint, DisconnectedEndpointsReturnEmpty) {
  Graph g(4);
  g.add_undirected(0, 1, 1.0);
  g.add_undirected(2, 3, 1.0);
  EXPECT_TRUE(node_disjoint_paths(g, 0, 3, 3).empty());
}

TEST(Mcf, SingleCommodityApproachesCutCapacity) {
  // Two disjoint unit-capacity paths: max concurrent flow of a demand of 2
  // has lambda = 1; of a demand of 4, lambda = 0.5.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto r2 = max_concurrent_flow(g, {{0, 3, 2.0}}, 0.05);
  EXPECT_GT(r2.lambda, 0.85);
  EXPECT_LE(r2.lambda, 1.0 + 1e-9);
  const auto r4 = max_concurrent_flow(g, {{0, 3, 4.0}}, 0.05);
  EXPECT_GT(r4.lambda, 0.42);
  EXPECT_LE(r4.lambda, 0.5 + 1e-9);
}

TEST(Mcf, CapacitiesRespectedProperty) {
  Rng rng(59);
  Graph g(10);
  for (int e = 0; e < 50; ++e) {
    const auto a = static_cast<NodeId>(rng.uniform_index(10));
    const auto b = static_cast<NodeId>(rng.uniform_index(10));
    if (a != b) g.add_edge(a, b, rng.uniform(1.0, 5.0));
  }
  std::vector<Demand> demands = {{0, 9, 2.0}, {1, 8, 1.0}, {2, 7, 1.5}};
  // Ensure connectivity for the demands; if not, regenerate deterministically
  // by adding direct low-capacity edges.
  for (const auto& d : demands) {
    if (shortest_path(g, d.source, d.target).empty()) {
      g.add_edge(d.source, d.target, 1.0);
    }
  }
  const auto result = max_concurrent_flow(g, demands, 0.1);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    double used = 0.0;
    for (const auto& f : result.flow) used += f[e];
    EXPECT_LE(used, g.edge(static_cast<EdgeId>(e)).weight * 1.05);
  }
  EXPECT_GT(result.lambda, 0.0);
}

TEST(Mcf, PrimaryPathsConnectEndpoints) {
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 3, 10.0);
  g.add_edge(0, 2, 10.0);
  g.add_edge(2, 3, 10.0);
  const auto result = max_concurrent_flow(g, {{0, 3, 1.0}}, 0.1);
  ASSERT_EQ(result.primary_path.size(), 1u);
  ASSERT_FALSE(result.primary_path[0].empty());
  EXPECT_EQ(result.primary_path[0].nodes.front(), 0u);
  EXPECT_EQ(result.primary_path[0].nodes.back(), 3u);
}

TEST(Mcf, AsymmetricBranchesCarryProportionalFlow) {
  // 0 -> 1 -> 3 at capacity 1 in parallel with 0 -> 2 -> 3 at capacity 3:
  // max flow is 4, so a demand of 4 has optimal lambda 1. The primary
  // (largest-share) path must take the fat branch.
  Graph g(4);
  const EdgeId thin = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  const EdgeId fat = g.add_edge(0, 2, 3.0);
  g.add_edge(2, 3, 3.0);
  const auto result = max_concurrent_flow(g, {{0, 3, 4.0}}, 0.05);
  EXPECT_GT(result.lambda, 0.85);
  EXPECT_LE(result.lambda, 1.0 + 1e-9);
  ASSERT_EQ(result.flow.size(), 1u);
  EXPECT_GT(result.flow[0][fat], result.flow[0][thin]);
  ASSERT_EQ(result.primary_path.size(), 1u);
  EXPECT_EQ(result.primary_path[0].nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Mcf, DisconnectedCommodityThrows) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 3, 1.0}}, 0.1), cisp::Error);
}

TEST(Mcf, RejectsBadInput) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(max_concurrent_flow(g, {}, 0.1), cisp::Error);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 1, 1.0}}, 0.9), cisp::Error);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 0, 1.0}}, 0.1), cisp::Error);
  EXPECT_THROW(max_concurrent_flow(g, {{0, 1, -2.0}}, 0.1), cisp::Error);
}

}  // namespace
}  // namespace cisp::graphs
