#include "algo/triangles.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/algo_view.h"
#include "algo/csr_switch.h"
#include "algo/node_index.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Degree-ordered forward adjacency as one flat CSR: node i keeps only
// neighbors j with (deg(j), j) > (deg(i), i), as ascending dense indices in
// nbrs[offsets[i], offsets[i + 1]). Every triangle then has exactly one
// vertex from which both others are "forward". The key is strict, so a
// self-loop is never forward (a self-loop cannot be part of a triangle);
// the degrees it orders by count self-loops, which only affects which
// vertex owns a triangle, never the count.
struct ForwardAdjacency {
  std::vector<int64_t> offsets;  // n + 1 entries.
  std::vector<int64_t> nbrs;

  // Legacy oracle: hash probe per edge to translate neighbor ids. The hash
  // adjacency is sorted by id and dense indices ascend with id, so the
  // translated runs come out ascending too.
  explicit ForwardAdjacency(const UndirectedGraph& g) {
    const NodeIndex ni = NodeIndex::FromGraph(g);
    const int64_t n = ni.size();
    std::vector<int64_t> deg(n);
    std::vector<const UndirectedGraph::NodeData*> node_ptr(n);
    for (int64_t i = 0; i < n; ++i) {
      node_ptr[i] = g.GetNode(ni.IdOf(i));
      deg[i] = static_cast<int64_t>(node_ptr[i]->nbrs.size());
    }
    Build(deg, [&](int64_t i, auto&& fn) {
      for (NodeId vid : node_ptr[i]->nbrs) fn(ni.IndexOf(vid));
    });
  }

  // CSR path: neighbor runs are already ascending dense indices, so the
  // filtered copy needs no translation.
  explicit ForwardAdjacency(const AlgoView& view) {
    const int64_t n = view.NumNodes();
    std::vector<int64_t> deg(n);
    ParallelFor(0, n, [&](int64_t i) { deg[i] = view.OutDegree(i); });
    Build(deg, [&](int64_t i, auto&& fn) { view.ForEachOut(i, fn); });
  }

  int64_t NumNodes() const {
    return static_cast<int64_t>(offsets.size()) - 1;
  }
  std::span<const int64_t> Fwd(int64_t i) const {
    return {nbrs.data() + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }

 private:
  // Count → ExclusivePrefixSum → fill. `deg` is every node's full degree;
  // for_each_nbr(i, fn) calls fn(j) for each neighbor j of i, ascending.
  template <typename ForEachNbr>
  void Build(const std::vector<int64_t>& deg, ForEachNbr&& for_each_nbr) {
    const int64_t n = static_cast<int64_t>(deg.size());
    auto forward = [&](int64_t i, int64_t j) {
      return deg[i] != deg[j] ? deg[i] < deg[j] : i < j;
    };
    offsets.assign(n + 1, 0);
    ParallelForDynamic(0, n, [&](int64_t i) {
      int64_t c = 0;
      for_each_nbr(i, [&](int64_t j) { c += forward(i, j) ? 1 : 0; });
      offsets[i] = c;
    });
    nbrs.resize(ExclusivePrefixSum(offsets));
    ParallelForDynamic(0, n, [&](int64_t i) {
      int64_t* out = nbrs.data() + offsets[i];
      for_each_nbr(i, [&](int64_t j) {
        if (forward(i, j)) *out++ = j;
      });
    });
  }
};

// Triangles owned by node i: marks fwd(i), then for each j in fwd(i) counts
// the marked entries of fwd(j) — each is a k closing {i, j, k} — and finally
// clears only the marks it set, so `mark` is all zero again on return.
// O(|fwd(i)| + sum of |fwd(j)|) with no merge branches.
int64_t CountOwned(const ForwardAdjacency& fa, int64_t i, uint8_t* mark) {
  const std::span<const int64_t> fi = fa.Fwd(i);
  for (const int64_t k : fi) mark[k] = 1;
  int64_t t = 0;
  for (const int64_t j : fi) {
    for (const int64_t k : fa.Fwd(j)) t += mark[k];
  }
  for (const int64_t k : fi) mark[k] = 0;
  return t;
}

int64_t CountWithForward(const ForwardAdjacency& fa, bool parallel) {
  const int64_t n = fa.NumNodes();
  // One n-byte marker per worker slot, allocated lazily by the worker that
  // first needs it and freed on return: at most (team size) x n bytes, and
  // nothing outlives the call. Slots are sized by the team a region opened
  // from this thread gets, which NumThreads() never exceeds.
  std::vector<std::vector<uint8_t>> marks(std::max(omp_get_max_threads(), 1));
  const int level = omp_get_level();
  // Integer sums are order-insensitive, but the blocked form shares the
  // TSan-visible fork/join fencing of ParallelFor instead of an opaque
  // `omp reduction` combine.
  return DeterministicBlockSum(
      0, n,
      [&](int64_t i) -> int64_t {
        if (fa.Fwd(i).size() < 2) return 0;  // Owns no triangle.
        // Inside the block fork the slot is the worker's team id. The
        // sequential branch (TriangleCount, a single block, one thread)
        // opens no region and takes slot 0: there omp_get_thread_num()
        // would name the caller's own outer-team id.
        const int slot = omp_get_level() > level ? omp_get_thread_num() : 0;
        std::vector<uint8_t>& mark = marks[slot];
        if (mark.empty()) mark.assign(n, 0);
        return CountOwned(fa, i, mark.data());
      },
      parallel);
}

int64_t CountTriangles(const UndirectedGraph& g, bool parallel,
                       const char* span_name, const char* orient_name,
                       const char* intersect_name) {
  trace::Span span(span_name);
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  span.AddAttr("csr", static_cast<int64_t>(csr::Enabled() ? 1 : 0));
  const std::shared_ptr<const AlgoView> view =
      csr::Enabled() ? AlgoView::Of(g) : nullptr;
  const ForwardAdjacency fa = [&] {
    trace::Span orient(orient_name);
    ForwardAdjacency f = view ? ForwardAdjacency(*view) : ForwardAdjacency(g);
    orient.AddAttr("forward_arcs", static_cast<int64_t>(f.nbrs.size()));
    return f;
  }();
  int64_t t;
  {
    trace::Span intersect(intersect_name);
    t = CountWithForward(fa, parallel);
  }
  span.AddAttr("triangles", t);
  return t;
}

// Neighbors of u excluding self-loops, as sorted NodeId vector (legacy).
std::vector<NodeId> CleanNeighbors(const UndirectedGraph::NodeData& nd,
                                   NodeId u) {
  std::vector<NodeId> out;
  out.reserve(nd.nbrs.size());
  for (NodeId v : nd.nbrs) {
    if (v != u) out.push_back(v);
  }
  return out;
}

// |(a \ {skip_a}) ∩ (b \ {skip_b})| over ascending spans — the CSR
// merge-intersection, skipping each endpoint's own self-loop entry inline
// instead of materializing cleaned copies.
int64_t IntersectSkip(std::span<const int64_t> a, int64_t skip_a,
                      std::span<const int64_t> b, int64_t skip_b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == skip_a) {
      ++i;
    } else if (b[j] == skip_b) {
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Per-node triangle participation over CSR spans.
std::vector<int64_t> CsrNodeTriangles(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> tri(n, 0);
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t twice = 0;
    // NbrSpan keeps i's run pinned (one decode on the compact layout) while
    // the inner Out(v) decodes into separate scratch buffers.
    const NbrSpan nbrs = view.Out(i);
    for (const int64_t v : nbrs) {
      if (v == i) continue;
      // |N(i) ∩ N(v)| counts each triangle through edge (i,v) once; summing
      // over v counts each of i's triangles twice.
      twice += IntersectSkip(nbrs, i, view.Out(v), v);
    }
    tri[i] = twice / 2;
  });
  return tri;
}

// Degree of dense node i excluding a self-loop (spans are ascending, so
// the self entry is found by binary search).
int64_t CleanDegree(const AlgoView& view, int64_t i) {
  const NbrSpan nbrs = view.Out(i);
  int64_t deg = static_cast<int64_t>(nbrs.size());
  if (std::binary_search(nbrs.begin(), nbrs.end(), i)) --deg;
  return deg;
}

}  // namespace

int64_t TriangleCount(const UndirectedGraph& g) {
  return CountTriangles(g, /*parallel=*/false, "Algo/TriangleCount",
                        "Algo/TriangleCount/orient",
                        "Algo/TriangleCount/intersect");
}

int64_t ParallelTriangleCount(const UndirectedGraph& g) {
  return CountTriangles(g, /*parallel=*/true, "Algo/ParallelTriangleCount",
                        "Algo/ParallelTriangleCount/orient",
                        "Algo/ParallelTriangleCount/intersect");
}

NodeInts NodeTriangles(const UndirectedGraph& g) {
  if (csr::Enabled()) {
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    return view->node_index().Zip(CsrNodeTriangles(*view));
  }
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();
  std::vector<int64_t> tri(n, 0);
  ParallelForDynamic(0, n, [&](int64_t i) {
    const NodeId u = ni.IdOf(i);
    const std::vector<NodeId> nu = CleanNeighbors(*g.GetNode(u), u);
    int64_t twice = 0;
    for (NodeId v : nu) {
      const std::vector<NodeId> nv = CleanNeighbors(*g.GetNode(v), v);
      size_t a = 0, b = 0;
      while (a < nu.size() && b < nv.size()) {
        if (nu[a] < nv[b]) {
          ++a;
        } else if (nu[a] > nv[b]) {
          ++b;
        } else {
          ++twice;
          ++a;
          ++b;
        }
      }
    }
    tri[i] = twice / 2;
  });
  return ni.Zip(tri);
}

NodeValues LocalClusteringCoefficients(const UndirectedGraph& g) {
  if (csr::Enabled()) {
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    const std::vector<int64_t> tri = CsrNodeTriangles(*view);
    const int64_t n = view->NumNodes();
    std::vector<double> cc(n);
    ParallelFor(0, n, [&](int64_t i) {
      const int64_t deg = CleanDegree(*view, i);
      const double pairs = static_cast<double>(deg) * (deg - 1) / 2.0;
      cc[i] = pairs > 0 ? static_cast<double>(tri[i]) / pairs : 0.0;
    });
    return view->node_index().Zip(cc);
  }
  const NodeInts tri = NodeTriangles(g);
  NodeValues out(tri.size());
  ParallelFor(0, static_cast<int64_t>(tri.size()), [&](int64_t i) {
    const auto [id, t] = tri[i];
    // Degree excluding self-loops.
    const UndirectedGraph::NodeData* nd = g.GetNode(id);
    int64_t deg = 0;
    for (NodeId v : nd->nbrs) {
      if (v != id) ++deg;
    }
    const double pairs = static_cast<double>(deg) * (deg - 1) / 2.0;
    out[i] = {id, pairs > 0 ? static_cast<double>(t) / pairs : 0.0};
  });
  return out;
}

double AverageClusteringCoefficient(const UndirectedGraph& g) {
  const NodeValues cc = LocalClusteringCoefficients(g);
  if (cc.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [id, c] : cc) sum += c;
  return sum / static_cast<double>(cc.size());
}

double GlobalClusteringCoefficient(const UndirectedGraph& g) {
  if (csr::Enabled()) {
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    // Closed wedges = 3 * #triangles: each triangle closes one wedge at
    // each of its vertices.
    const int64_t triangles3 =
        3 * CountWithForward(ForwardAdjacency(*view), /*parallel=*/true);
    const int64_t n = view->NumNodes();
    const int64_t wedges = DeterministicBlockSum(0, n, [&](int64_t i) {
      const int64_t deg = CleanDegree(*view, i);
      return deg * (deg - 1) / 2;
    });
    return wedges > 0 ? static_cast<double>(triangles3) /
                            static_cast<double>(wedges)
                      : 0.0;
  }
  const NodeInts tri = NodeTriangles(g);
  int64_t triangles3 = 0;
  for (const auto& [id, t] : tri) triangles3 += t;
  int64_t wedges = 0;
  g.ForEachNode([&](NodeId u, const UndirectedGraph::NodeData& nd) {
    int64_t deg = 0;
    for (NodeId v : nd.nbrs) {
      if (v != u) ++deg;
    }
    wedges += deg * (deg - 1) / 2;
  });
  return wedges > 0 ? static_cast<double>(triangles3) /
                          static_cast<double>(wedges)
                    : 0.0;
}

}  // namespace ringo
