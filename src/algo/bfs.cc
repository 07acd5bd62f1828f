#include "algo/bfs.h"

#include <algorithm>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "storage/flat_hash_map.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Compacts a dense engine result into the public (id, hops) pairs sorted by
// id: blocked count + prefix + fill, sequential below the engine's own
// parallel granularity.
NodeInts DensePairs(const AlgoView& view, const bfs::DenseBfs& r) {
  const int64_t n = view.NumNodes();
  NodeInts out;
  if (r.reached < (1 << 12) || NumThreads() <= 1) {
    out.reserve(r.reached);
    for (int64_t i = 0; i < n; ++i) {
      if (r.dist[i] >= 0) out.emplace_back(view.IdOf(i), r.dist[i]);
    }
    return out;
  }
  constexpr int64_t kBlock = 1 << 12;
  const int64_t nblocks = (n + kBlock - 1) / kBlock;
  std::vector<int64_t> offsets(nblocks + 1, 0);
  ParallelFor(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlock;
    const int64_t hi = std::min(n, lo + kBlock);
    int64_t c = 0;
    for (int64_t i = lo; i < hi; ++i) c += (r.dist[i] >= 0);
    offsets[b] = c;
  });
  const int64_t total = ExclusivePrefixSum(offsets);
  out.resize(total);
  ParallelFor(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlock;
    const int64_t hi = std::min(n, lo + kBlock);
    int64_t pos = offsets[b];
    for (int64_t i = lo; i < hi; ++i) {
      if (r.dist[i] >= 0) out[pos++] = {view.IdOf(i), r.dist[i]};
    }
  });
  return out;
}

}  // namespace

NodeInts BfsDistances(const DirectedGraph& g, NodeId src, BfsDir dir) {
  if (!g.HasNode(src)) return {};
  trace::Span span("Algo/BfsDistances");
  span.AddAttr("nodes", g.NumNodes());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const bfs::DenseBfs r = bfs::Run(*view, view->IndexOf(src), dir);
  span.AddAttr("reached", r.reached);
  span.AddAttr("top_down_steps", r.top_down_steps);
  span.AddAttr("bottom_up_steps", r.bottom_up_steps);
  return DensePairs(*view, r);
}

NodeInts BfsDistances(const UndirectedGraph& g, NodeId src) {
  if (!g.HasNode(src)) return {};
  trace::Span span("Algo/BfsDistances");
  span.AddAttr("nodes", g.NumNodes());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const bfs::DenseBfs r = bfs::Run(*view, view->IndexOf(src), BfsDir::kOut);
  span.AddAttr("reached", r.reached);
  span.AddAttr("top_down_steps", r.top_down_steps);
  span.AddAttr("bottom_up_steps", r.bottom_up_steps);
  return DensePairs(*view, r);
}

std::vector<NodeId> BfsReachable(const DirectedGraph& g, NodeId src,
                                 BfsDir dir) {
  std::vector<NodeId> out;
  for (const auto& [id, d] : BfsDistances(g, src, dir)) out.push_back(id);
  return out;
}

std::vector<NodeId> BfsReachable(const UndirectedGraph& g, NodeId src) {
  std::vector<NodeId> out;
  for (const auto& [id, d] : BfsDistances(g, src)) out.push_back(id);
  return out;
}

std::vector<NodeId> ShortestPath(const DirectedGraph& g, NodeId src,
                                 NodeId dst, BfsDir dir) {
  if (!g.HasNode(src) || !g.HasNode(dst)) return {};
  if (src == dst) return {src};
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t src_i = view->IndexOf(src);
  const int64_t dst_i = view->IndexOf(dst);
  bfs::Options opts;
  opts.need_parents = true;
  opts.stop_at = dst_i;
  const bfs::DenseBfs r = bfs::Run(*view, src_i, dir, opts);
  if (r.dist[dst_i] < 0) return {};
  // Walking min-id parents yields the same path for every thread count.
  std::vector<NodeId> path{dst};
  int64_t cur = dst_i;
  while (cur != src_i) {
    cur = r.parent[cur];
    path.push_back(view->IdOf(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int64_t BfsDepth(const DirectedGraph& g, NodeId src, BfsDir dir) {
  if (!g.HasNode(src)) return -1;
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return bfs::Run(*view, view->IndexOf(src), dir).max_depth;
}

int64_t BfsDepth(const UndirectedGraph& g, NodeId src) {
  if (!g.HasNode(src)) return -1;
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return bfs::Run(*view, view->IndexOf(src), BfsDir::kOut).max_depth;
}

namespace {

// Shared iterative DFS skeleton; emits preorder or postorder. Each frame
// caches its node's out-run (spans stay valid while the graph is not
// mutated), so the node hash lookup happens once per push instead of
// twice per loop iteration.
std::vector<NodeId> DfsOrder(const DirectedGraph& g, NodeId src,
                             bool preorder) {
  if (!g.HasNode(src)) return {};
  std::vector<NodeId> order;
  FlatHashSet<NodeId> visited;
  struct Frame {
    NodeId u;
    std::span<const NodeId> out;  // Sorted: ascending-id children.
    size_t child;
  };
  std::vector<Frame> stack{{src, g.GetNode(src)->out, 0}};
  visited.Insert(src);
  if (preorder) order.push_back(src);
  while (!stack.empty()) {
    Frame& f = stack.back();
    bool descended = false;
    while (f.child < f.out.size()) {
      const NodeId v = f.out[f.child++];
      if (visited.Insert(v)) {
        if (preorder) order.push_back(v);
        stack.push_back({v, g.GetNode(v)->out, 0});
        descended = true;
        break;
      }
    }
    if (!descended) {
      if (!preorder) order.push_back(f.u);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace

std::vector<NodeId> DfsPreorder(const DirectedGraph& g, NodeId src) {
  return DfsOrder(g, src, /*preorder=*/true);
}

std::vector<NodeId> DfsPostorder(const DirectedGraph& g, NodeId src) {
  return DfsOrder(g, src, /*preorder=*/false);
}

}  // namespace ringo
