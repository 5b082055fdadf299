#include "graph/dijkstra.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace cisp::graphs {

ShortestPathTree dijkstra(const Graph& graph, NodeId source,
                          const EdgeMask& mask, NodeId target) {
  CISP_REQUIRE(source < graph.node_count(), "source out of range");
  ShortestPathTree tree;
  tree.source = source;
  tree.dist.assign(graph.node_count(), kUnreachable);
  tree.parent_edge.assign(graph.node_count(), kNoEdge);
  tree.dist[source] = 0.0;

  using QueueEntry = std::pair<double, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [dist, node] = pq.top();
    pq.pop();
    if (dist > tree.dist[node]) continue;  // stale entry
    if (node == target) break;
    for (const EdgeId eid : graph.out_edges(node)) {
      if (mask && !mask(eid)) continue;
      const Edge& e = graph.edge(eid);
      const double candidate = dist + e.weight;
      if (candidate < tree.dist[e.to]) {
        tree.dist[e.to] = candidate;
        tree.parent_edge[e.to] = eid;
        pq.push({candidate, e.to});
      }
    }
  }
  return tree;
}

Path extract_path(const Graph& graph, const ShortestPathTree& tree,
                  NodeId target) {
  CISP_REQUIRE(target < graph.node_count(), "target out of range");
  Path path;
  if (!tree.reached(target)) return path;
  path.length = tree.dist[target];
  NodeId node = target;
  path.nodes.push_back(node);
  while (node != tree.source) {
    const EdgeId eid = tree.parent_edge[node];
    node = graph.edge(eid).from;
    path.nodes.push_back(node);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

Path extract_pinned_path(const Graph& graph, const ShortestPathTree& tree,
                         NodeId target) {
  Path path = extract_path(graph, tree, target);
  if (path.empty()) return path;
  path.edges.reserve(path.nodes.size() - 1);
  for (NodeId node = target; node != tree.source;
       node = graph.edge(tree.parent_edge[node]).from) {
    path.edges.push_back(tree.parent_edge[node]);
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

Path shortest_path(const Graph& graph, NodeId source, NodeId target,
                   const EdgeMask& mask) {
  return extract_path(graph, dijkstra(graph, source, mask, target), target);
}

}  // namespace cisp::graphs
