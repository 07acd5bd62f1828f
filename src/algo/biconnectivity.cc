#include "algo/biconnectivity.h"

#include <algorithm>

#include "algo/node_index.h"

namespace ringo {

Biconnectivity FindCutPointsAndBridges(const UndirectedGraph& g) {
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();

  // Dense adjacency without self-loops.
  std::vector<std::vector<int64_t>> adj(n);
  for (int64_t i = 0; i < n; ++i) {
    const auto node = g.GetNode(ni.IdOf(i));
    for (NodeId v : node->nbrs) {
      const int64_t j = ni.IndexOf(v);
      if (j != i) adj[i].push_back(j);
    }
  }

  constexpr int64_t kUnvisited = -1;
  std::vector<int64_t> disc(n, kUnvisited), low(n, kUnvisited);
  std::vector<uint8_t> is_cut(n, 0);
  std::vector<Edge> bridges;
  int64_t timer = 0;

  // Iterative DFS frames: (node, parent, next-child index, parent edge
  // already skipped once — needed because a simple graph stores the parent
  // link exactly once in the child's adjacency).
  struct Frame {
    int64_t u, parent;
    size_t child;
    bool parent_skipped;
  };
  std::vector<Frame> stack;

  for (int64_t root = 0; root < n; ++root) {
    if (disc[root] != kUnvisited) continue;
    int64_t root_children = 0;
    stack.push_back({root, -1, 0, false});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.child < adj[f.u].size()) {
        const int64_t v = adj[f.u][f.child++];
        if (v == f.parent && !f.parent_skipped) {
          f.parent_skipped = true;  // The tree edge back to the parent.
          continue;
        }
        if (disc[v] == kUnvisited) {
          if (f.u == root) ++root_children;
          disc[v] = low[v] = timer++;
          stack.push_back({v, f.u, 0, false});
        } else {
          low[f.u] = std::min(low[f.u], disc[v]);  // Back edge.
        }
      } else {
        const Frame done = f;
        stack.pop_back();
        if (done.parent >= 0) {
          low[done.parent] = std::min(low[done.parent], low[done.u]);
          if (low[done.u] > disc[done.parent]) {
            const NodeId a = ni.IdOf(done.parent);
            const NodeId b = ni.IdOf(done.u);
            bridges.emplace_back(std::min(a, b), std::max(a, b));
          }
          if (done.parent != root && low[done.u] >= disc[done.parent]) {
            is_cut[done.parent] = 1;
          }
        }
      }
    }
    if (root_children >= 2) is_cut[root] = 1;
  }

  Biconnectivity out;
  for (int64_t i = 0; i < n; ++i) {
    if (is_cut[i]) out.articulation_points.push_back(ni.IdOf(i));
  }
  std::sort(bridges.begin(), bridges.end());
  out.bridges = std::move(bridges);
  return out;
}

}  // namespace ringo
