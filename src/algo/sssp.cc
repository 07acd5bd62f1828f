#include "algo/sssp.h"

#include <algorithm>
#include <queue>

#include "algo/bfs.h"
#include "storage/flat_hash_map.h"

namespace ringo {

NodeInts SsspUnweighted(const DirectedGraph& g, NodeId src) {
  return BfsDistances(g, src, BfsDir::kOut);
}

namespace {

template <typename Nbrs>
Result<NodeValues> DijkstraImpl(bool has_src, NodeId src,
                                const EdgeWeights& w, const Nbrs& nbrs) {
  if (!has_src) return NodeValues{};
  // Lazy-deletion binary heap of (distance, node).
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  FlatHashMap<NodeId, double> dist;
  FlatHashMap<NodeId, char> done;
  dist.Insert(src, 0.0);
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (!done.Insert(u, 1).second) continue;
    for (NodeId v : nbrs(u)) {
      const double wt = w.Get(u, v);
      if (wt < 0) {
        return Status::InvalidArgument("Dijkstra on negative edge weight");
      }
      const double alt = du + wt;
      auto [dv, inserted] = dist.Insert(v, alt);
      if (inserted || alt < *dv) {
        *dv = alt;
        heap.push({alt, v});
      }
    }
  }
  NodeValues out;
  out.reserve(dist.size());
  dist.ForEach([&](NodeId id, const double& d) { out.emplace_back(id, d); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<NodeValues> Dijkstra(const DirectedGraph& g, const EdgeWeights& w,
                            NodeId src) {
  return DijkstraImpl(g.HasNode(src), src, w, [&](NodeId u) {
    return g.GetNode(u)->out;
  });
}

Result<NodeValues> Dijkstra(const UndirectedGraph& g, const EdgeWeights& w,
                            NodeId src) {
  return DijkstraImpl(g.HasNode(src), src, w, [&](NodeId u) {
    return g.GetNode(u)->nbrs;
  });
}

}  // namespace ringo
