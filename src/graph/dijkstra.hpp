#pragma once
// Dijkstra shortest paths with optional edge masking (used for weather
// failures and tower-disjoint path extraction).

#include <functional>
#include <limits>

#include "graph/graph.hpp"

namespace cisp::graphs {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Shortest-path tree from one source.
struct ShortestPathTree {
  NodeId source = 0;
  std::vector<double> dist;         ///< kUnreachable if not reachable
  std::vector<EdgeId> parent_edge;  ///< kNoEdge at source/unreached nodes

  [[nodiscard]] bool reached(NodeId node) const {
    return dist[node] < kUnreachable;
  }
};

/// Edge filter: edges for which the predicate returns false are ignored.
using EdgeMask = std::function<bool(EdgeId)>;

/// Runs Dijkstra from `source`. With a mask, disabled edges are skipped.
/// Early-exits once `target` is settled if `target` is given.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& graph, NodeId source,
                                        const EdgeMask& mask = nullptr,
                                        NodeId target = static_cast<NodeId>(-1));

/// Reconstructs the node path from a tree; empty path if unreachable.
[[nodiscard]] Path extract_path(const Graph& graph,
                                const ShortestPathTree& tree, NodeId target);

/// extract_path with the tree's parent arcs pinned in `edges`: the path
/// follows the exact arcs the search relaxed, so a cheaper parallel arc the
/// search masked (a downed MW hop beside the fiber it used) is never
/// substituted. Empty if unreachable.
[[nodiscard]] Path extract_pinned_path(const Graph& graph,
                                       const ShortestPathTree& tree,
                                       NodeId target);

/// Convenience: shortest path between two nodes (empty if disconnected).
[[nodiscard]] Path shortest_path(const Graph& graph, NodeId source,
                                 NodeId target, const EdgeMask& mask = nullptr);

}  // namespace cisp::graphs
