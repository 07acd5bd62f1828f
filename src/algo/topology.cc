#include "algo/topology.h"

#include <algorithm>
#include <queue>

#include "algo/node_index.h"

namespace ringo {

Result<std::vector<NodeId>> TopologicalSort(const DirectedGraph& g) {
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();
  std::vector<int64_t> indeg(n, 0);
  for (int64_t i = 0; i < n; ++i) {
    indeg[i] = static_cast<int64_t>(g.GetNode(ni.IdOf(i))->in.size());
  }
  // Min-heap on node id keeps the order deterministic.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>> ready;
  for (int64_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push(i);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const int64_t u = ready.top();
    ready.pop();
    order.push_back(ni.IdOf(u));
    const auto nd = g.GetNode(ni.IdOf(u));
    for (NodeId vid : nd->out) {
      const int64_t v = ni.IndexOf(vid);
      if (--indeg[v] == 0) ready.push(v);
    }
  }
  if (static_cast<int64_t>(order.size()) != n) {
    return Status::InvalidArgument("graph has a directed cycle");
  }
  return order;
}

bool IsDag(const DirectedGraph& g) { return TopologicalSort(g).ok(); }

std::vector<NodeId> FindCycle(const DirectedGraph& g) {
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();
  // Iterative DFS with colors; back edge closes a cycle.
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(n, kWhite);
  std::vector<int64_t> parent(n, -1);
  for (int64_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<int64_t, size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [u, child] = stack.back();
      if (child == 0) color[u] = kGray;
      const std::span<const NodeId> out = g.GetNode(ni.IdOf(u))->out;
      if (child < out.size()) {
        const int64_t v = ni.IndexOf(out[child++]);
        if (v == u) return {ni.IdOf(u)};  // Self-loop.
        if (color[v] == kGray) {
          // Walk parents from u back to v.
          std::vector<NodeId> cycle{ni.IdOf(v)};
          for (int64_t w = u; w != v; w = parent[w]) {
            cycle.push_back(ni.IdOf(w));
          }
          std::reverse(cycle.begin() + 1, cycle.end());
          return cycle;
        }
        if (color[v] == kWhite) {
          parent[v] = u;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace ringo
