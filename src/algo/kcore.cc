#include "algo/kcore.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "algo/algo_view.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Sequential peel over one residual-degree array (PKC's single-array
// trick, DESIGN.md §19). Level k peels every live node whose degree is
// <= k; a neighbour is decremented only while its degree is > k, so no
// live node drops below the current level and a peeled node's degree
// freezes at its core number. The array therefore needs no claim flags
// and ends holding the core numbers. A self-loop contributes 1 to its
// node's degree and is never decremented (the node's degree is already
// k when it is peeled).
std::vector<int64_t> PeelCoreNumbers(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> deg(n);
  for (int64_t i = 0; i < n; ++i) deg[i] = view.OutDegree(i);
  // Nodes with degree > k as of the last seed scan; each scan drops the
  // entries peeled since, so a level costs the live nodes, not all n.
  std::vector<int64_t> live(n);
  std::iota(live.begin(), live.end(), 0);
  int64_t live_size = n;
  // Peel order: every node is queued exactly once, so one array serves
  // every level's queue; [head, tail) is the current level's pending part.
  std::vector<int64_t> order(n);
  int64_t head = 0, tail = 0;
  int64_t k = 0;
  while (tail < n) {
    // Seeds of level k: live nodes whose degree is exactly k (none is
    // lower). A level with no seed jumps to the smallest live degree.
    int64_t kept = 0;
    int64_t next_k = std::numeric_limits<int64_t>::max();
    for (int64_t r = 0; r < live_size; ++r) {
      const int64_t v = live[r];
      const int64_t d = deg[v];
      if (d > k) {
        live[kept++] = v;
        next_k = std::min(next_k, d);
      } else if (d == k) {
        order[tail++] = v;
      }
    }
    live_size = kept;
    if (head == tail) {
      k = next_k;
      continue;
    }
    // Cascade: peeling a node can drag neighbours down to k.
    for (; head < tail; ++head) {
      view.ForEachOut(order[head], [&](int64_t v) {
        if (deg[v] > k && --deg[v] == k) order[tail++] = v;
      });
    }
    ++k;
  }
  return deg;
}

}  // namespace

NodeInts CoreNumbers(const UndirectedGraph& g) {
  const int64_t n = g.NumNodes();
  if (n == 0) return {};
  trace::Span span("Algo/CoreNumbers");
  span.AddAttr("nodes", n);
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(PeelCoreNumbers(*view));
}

UndirectedGraph KCoreSubgraph(const UndirectedGraph& g, int64_t k) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const std::vector<int64_t> core = PeelCoreNumbers(*view);
  const int64_t n = view->NumNodes();
  UndirectedGraph out;
  for (int64_t i = 0; i < n; ++i) {
    if (core[i] >= k) out.AddNode(view->IdOf(i));
  }
  // Undirected spans list each edge in both endpoints' rows and a self-loop
  // once, so emitting j >= i yields each kept edge exactly once.
  for (int64_t i = 0; i < n; ++i) {
    if (core[i] < k) continue;
    for (const int64_t j : view->Out(i)) {
      if (j >= i && core[j] >= k) out.AddEdge(view->IdOf(i), view->IdOf(j));
    }
  }
  return out;
}

int64_t Degeneracy(const UndirectedGraph& g) {
  int64_t best = 0;
  for (const auto& [id, c] : CoreNumbers(g)) best = std::max(best, c);
  return best;
}

}  // namespace ringo
