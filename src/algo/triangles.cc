#include "algo/triangles.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/algo_view.h"
#include "util/default_init.h"
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
  PooledVector<int64_t> offsets;  // n + 1 entries.
  PooledVector<int64_t> nbrs;

  // Count → ExclusivePrefixSum → fill. Neighbor runs are already
  // ascending dense indices, so the filtered copy needs no translation.
  explicit ForwardAdjacency(const AlgoView& view) {
    const int64_t n = view.NumNodes();
    std::vector<int64_t> deg(n);
    ParallelFor(0, n, [&](int64_t i) { deg[i] = view.OutDegree(i); });
    auto forward = [&](int64_t i, int64_t j) {
      return deg[i] != deg[j] ? deg[i] < deg[j] : i < j;
    };
    offsets.assign(n + 1, 0);
    ParallelForDynamic(0, n, [&](int64_t i) {
      int64_t c = 0;
      view.ForEachOut(i, [&](int64_t j) { c += forward(i, j) ? 1 : 0; });
      offsets[i] = c;
    });
    nbrs.resize(ExclusivePrefixSum(offsets.data(), offsets.data(),
                                   static_cast<int64_t>(offsets.size())));
    ParallelForDynamic(0, n, [&](int64_t i) {
      int64_t* out = nbrs.data() + offsets[i];
      view.ForEachOut(i, [&](int64_t j) {
        if (forward(i, j)) *out++ = j;
      });
    });
  }

  int64_t NumNodes() const {
    return static_cast<int64_t>(offsets.size()) - 1;
  }
  std::span<const int64_t> Fwd(int64_t i) const {
    return {nbrs.data() + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
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
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const ForwardAdjacency fa = [&] {
    trace::Span orient(orient_name);
    ForwardAdjacency f(*view);
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

// |(a \ {skip_a}) ∩ (b \ {skip_b})| over ascending spans — a
// merge-intersection skipping each endpoint's own self-loop entry inline
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

// Per-node triangle participation over the snapshot's neighbor runs.
std::vector<int64_t> CountNodeTriangles(const AlgoView& view) {
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
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(CountNodeTriangles(*view));
}

NodeValues LocalClusteringCoefficients(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const std::vector<int64_t> tri = CountNodeTriangles(*view);
  const int64_t n = view->NumNodes();
  std::vector<double> cc(n);
  ParallelFor(0, n, [&](int64_t i) {
    const int64_t deg = CleanDegree(*view, i);
    const double pairs = static_cast<double>(deg) * (deg - 1) / 2.0;
    cc[i] = pairs > 0 ? static_cast<double>(tri[i]) / pairs : 0.0;
  });
  return view->node_index().Zip(cc);
}

double AverageClusteringCoefficient(const UndirectedGraph& g) {
  const NodeValues cc = LocalClusteringCoefficients(g);
  if (cc.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [id, c] : cc) sum += c;
  return sum / static_cast<double>(cc.size());
}

double GlobalClusteringCoefficient(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  // Closed wedges = 3 * #triangles: each triangle closes one wedge at each
  // of its vertices.
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

}  // namespace ringo
