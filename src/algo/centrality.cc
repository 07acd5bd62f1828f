#include "algo/centrality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

namespace {

// BFS from `src` along out-runs; fills dist (-1 = unreachable) and returns
// the visit order. A self-loop entry in Out(u) is a no-op: dist[u] is
// already set. Runs are NbrSpans (not std::span): on a compressed base the
// run lives in pooled scratch that must stay pinned while it is iterated.
std::vector<int64_t> DenseBfs(const AlgoView& view, int64_t src,
                              std::vector<int64_t>* dist) {
  dist->assign(view.NumNodes(), -1);
  std::vector<int64_t> order;
  order.reserve(64);
  (*dist)[src] = 0;
  order.push_back(src);
  for (size_t head = 0; head < order.size(); ++head) {
    const int64_t u = order[head];
    for (int64_t v : view.Out(u)) {
      if ((*dist)[v] < 0) {
        (*dist)[v] = (*dist)[u] + 1;
        order.push_back(v);
      }
    }
  }
  return order;
}

// degree / (n - 1) for every node; `in` selects in-degrees (an undirected
// view's out-degree is its degree).
NodeValues DegreeCentralityOf(const AlgoView& view, bool in) {
  const int64_t n = view.NumNodes();
  std::vector<double> c(n, 0.0);
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  ParallelFor(0, n, [&](int64_t i) {
    const int64_t deg = in ? view.InDegree(i) : view.OutDegree(i);
    c[i] = static_cast<double>(deg) / denom;
  });
  return view.node_index().Zip(c);
}

}  // namespace

NodeValues DegreeCentrality(const UndirectedGraph& g) {
  return DegreeCentralityOf(*AlgoView::Of(g), /*in=*/false);
}

NodeValues InDegreeCentrality(const DirectedGraph& g) {
  return DegreeCentralityOf(*AlgoView::Of(g), /*in=*/true);
}

NodeValues OutDegreeCentrality(const DirectedGraph& g) {
  return DegreeCentralityOf(*AlgoView::Of(g), /*in=*/false);
}

namespace {

// BFS-per-node measures run over fixed blocks of sources so the dist
// scratch is allocated once per block, not once per BFS. Blocks go
// through ParallelForDynamic — never a raw `#pragma omp parallel`,
// whose fork/join TSan cannot see (util/parallel.h) — and each output
// slot depends only on its own source, so blocking can't change results.
constexpr int64_t kBfsSourcesPerBlock = 16;

std::vector<double> ClosenessKernel(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<double> c(n, 0.0);
  const int64_t nblocks =
      (n + kBfsSourcesPerBlock - 1) / kBfsSourcesPerBlock;
  ParallelForDynamic(0, nblocks, [&](int64_t b) {
    std::vector<int64_t> dist;
    const int64_t lo = b * kBfsSourcesPerBlock;
    const int64_t hi = std::min(n, lo + kBfsSourcesPerBlock);
    for (int64_t u = lo; u < hi; ++u) {
      const std::vector<int64_t> order = DenseBfs(view, u, &dist);
      int64_t total = 0;
      for (int64_t v : order) total += dist[v];
      const int64_t r = static_cast<int64_t>(order.size());
      if (total > 0 && n > 1) {
        // Wasserman–Faust correction for disconnected graphs.
        c[u] = (static_cast<double>(r - 1) / total) *
               (static_cast<double>(r - 1) / static_cast<double>(n - 1));
      }
    }
  }, /*chunk=*/1);
  return c;
}

template <typename Graph>
NodeValues ClosenessOf(const Graph& g) {
  trace::Span span("Algo/Closeness");
  span.AddAttr("nodes", g.NumNodes());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(ClosenessKernel(*view));
}

}  // namespace

NodeValues ClosenessCentrality(const UndirectedGraph& g) {
  return ClosenessOf(g);
}

NodeValues ClosenessCentralityDirected(const DirectedGraph& g) {
  return ClosenessOf(g);
}

namespace {

// Sampled-closeness estimator; pivots are dense indices (dense index i =
// i-th smallest node id), drawn by a seeded partial Fisher–Yates shuffle.
std::vector<double> ApproxClosenessKernel(const AlgoView& view,
                                          int64_t samples, uint64_t seed) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> pivots(n);
  std::iota(pivots.begin(), pivots.end(), 0);
  Rng rng(seed);
  for (int64_t i = 0; i < samples; ++i) {
    std::swap(pivots[i], pivots[rng.UniformInt(i, n - 1)]);
  }
  pivots.resize(samples);

  // Accumulate distances from each pivot to all nodes.
  std::vector<double> sum(n, 0.0);
  std::vector<int64_t> reached(n, 0);
  std::vector<int64_t> dist;
  for (int64_t p : pivots) {
    DenseBfs(view, p, &dist);
    for (int64_t v = 0; v < n; ++v) {
      if (dist[v] > 0) {  // Exclude the pivot's own zero distance.
        sum[v] += dist[v];
        ++reached[v];
      }
    }
  }
  std::vector<double> c(n, 0.0);
  for (int64_t v = 0; v < n; ++v) {
    if (sum[v] > 0 && reached[v] > 0 && n > 1) {
      // avg estimates v's mean distance to the other nodes it can reach;
      // r_est estimates |reachable set| (the +1 restores v itself). With
      // samples == n this reproduces ClosenessCentrality up to rounding.
      const double avg = sum[v] / static_cast<double>(reached[v]);
      const double r_est = static_cast<double>(reached[v]) /
                               static_cast<double>(samples) * n +
                           1.0;
      c[v] = (1.0 / avg) * ((r_est - 1) / static_cast<double>(n - 1));
    }
  }
  return c;
}

}  // namespace

NodeValues ApproxClosenessCentrality(const UndirectedGraph& g,
                                     int64_t samples, uint64_t seed) {
  const int64_t n = g.NumNodes();
  if (n == 0) return {};
  samples = std::clamp<int64_t>(samples, 1, n);
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(ApproxClosenessKernel(*view, samples, seed));
}

namespace {

std::vector<double> HarmonicKernel(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<double> c(n, 0.0);
  const int64_t nblocks =
      (n + kBfsSourcesPerBlock - 1) / kBfsSourcesPerBlock;
  ParallelForDynamic(0, nblocks, [&](int64_t b) {
    std::vector<int64_t> dist;
    const int64_t lo = b * kBfsSourcesPerBlock;
    const int64_t hi = std::min(n, lo + kBfsSourcesPerBlock);
    for (int64_t u = lo; u < hi; ++u) {
      const std::vector<int64_t> order = DenseBfs(view, u, &dist);
      double acc = 0.0;
      for (int64_t v : order) {
        if (v != u) acc += 1.0 / static_cast<double>(dist[v]);
      }
      c[u] = n > 1 ? acc / static_cast<double>(n - 1) : 0.0;
    }
  }, /*chunk=*/1);
  return c;
}

}  // namespace

NodeValues HarmonicCentrality(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(HarmonicKernel(*view));
}

namespace {

// One Brandes source accumulation into `delta_out`. A self-loop entry never
// fires either branch (dist[v] is set and != dist[u] + 1 for v == u), so
// the runs need no filtering.
void BrandesFromSource(const AlgoView& view, int64_t s,
                       std::vector<double>* delta_out) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> dist(n, -1);
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  std::vector<std::vector<int64_t>> preds(n);
  std::vector<int64_t> order;
  order.reserve(64);

  dist[s] = 0;
  sigma[s] = 1.0;
  order.push_back(s);
  for (size_t head = 0; head < order.size(); ++head) {
    const int64_t u = order[head];
    for (int64_t v : view.Out(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
      if (dist[v] == dist[u] + 1) {
        sigma[v] += sigma[u];
        preds[v].push_back(u);
      }
    }
  }
  // Dependency accumulation in reverse BFS order.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int64_t w = *it;
    for (int64_t p : preds[w]) {
      delta[p] += (sigma[p] / sigma[w]) * (1.0 + delta[w]);
    }
    if (w != s) (*delta_out)[w] += delta[w];
  }
}

// Sources are grouped into fixed blocks of 32; each block accumulates its
// Brandes contributions sequentially into its own buffer, and buffers merge
// in block order. Which thread ran which block no longer matters, so the
// result is bit-identical at every thread count (the old per-thread-buffer
// merge depended on the dynamic schedule).
std::vector<double> BetweennessKernel(const AlgoView& view,
                                      const std::vector<int64_t>& sources,
                                      double scale, bool halve_pairs) {
  const int64_t n = view.NumNodes();
  constexpr int64_t kSourcesPerBlock = 32;
  const int64_t nsources = static_cast<int64_t>(sources.size());
  const int64_t nblocks =
      (nsources + kSourcesPerBlock - 1) / kSourcesPerBlock;
  std::vector<std::vector<double>> block_sum(nblocks);
  ParallelForDynamic(0, nblocks, [&](int64_t b) {
    std::vector<double> acc(n, 0.0);
    const int64_t lo = b * kSourcesPerBlock;
    const int64_t hi = std::min(lo + kSourcesPerBlock, nsources);
    for (int64_t i = lo; i < hi; ++i) {
      BrandesFromSource(view, sources[i], &acc);
    }
    block_sum[b] = std::move(acc);
  });
  // Undirected: each pair was counted from both endpoints.
  const double factor = (halve_pairs ? 0.5 : 1.0) * scale;
  std::vector<double> bc(n, 0.0);
  ParallelFor(0, n, [&](int64_t v) {
    double acc = 0.0;
    for (int64_t b = 0; b < nblocks; ++b) acc += block_sum[b][v];
    bc[v] = acc * factor;
  });
  return bc;
}

template <typename Graph>
NodeValues BetweennessOf(const Graph& g, const std::vector<int64_t>& sources,
                         double scale, bool halve_pairs) {
  trace::Span span("Algo/Betweenness");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("sources", static_cast<int64_t>(sources.size()));
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(
      BetweennessKernel(*view, sources, scale, halve_pairs));
}

}  // namespace

NodeValues BetweennessCentrality(const UndirectedGraph& g) {
  const int64_t n = g.NumNodes();
  std::vector<int64_t> sources(n);
  std::iota(sources.begin(), sources.end(), 0);
  return BetweennessOf(g, sources, 1.0, /*halve_pairs=*/true);
}

NodeValues BetweennessCentralityDirected(const DirectedGraph& g) {
  const int64_t n = g.NumNodes();
  std::vector<int64_t> sources(n);
  std::iota(sources.begin(), sources.end(), 0);
  return BetweennessOf(g, sources, 1.0, /*halve_pairs=*/false);
}

NodeValues ApproxBetweennessCentrality(const UndirectedGraph& g,
                                       int64_t samples, uint64_t seed) {
  const int64_t n = g.NumNodes();
  if (n == 0) return {};
  samples = std::clamp<int64_t>(samples, 1, n);
  std::vector<int64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  Rng rng(seed);
  for (int64_t i = 0; i < samples; ++i) {
    std::swap(all[i], all[rng.UniformInt(i, n - 1)]);
  }
  all.resize(samples);
  return BetweennessOf(
      g, all, static_cast<double>(n) / static_cast<double>(samples),
      /*halve_pairs=*/true);
}

namespace {

Result<NodeValues> EigenvectorKernel(const AlgoView& view, int max_iters,
                                     double tol) {
  const int64_t n = view.NumNodes();
  const NodeIndex& ni = view.node_index();
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n))), next(n);
  for (int iter = 0; iter < max_iters; ++iter) {
    // Iterate on A + I rather than A: the shift leaves the principal
    // eigenvector unchanged but kills the period-2 oscillation plain power
    // iteration exhibits on bipartite graphs (e.g. stars). Self-loop run
    // entries are skipped, so A has a zero diagonal.
    ParallelForDynamic(0, n, [&](int64_t i) {
      double acc = x[i];
      for (int64_t j : view.Out(i)) {
        if (j != i) acc += x[j];
      }
      next[i] = acc;
    });
    double norm = 0.0;
    for (int64_t i = 0; i < n; ++i) norm += next[i] * next[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      // No edges: centrality is uniform zero.
      std::fill(next.begin(), next.end(), 0.0);
      return ni.Zip(next);
    }
    double delta = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      next[i] /= norm;
      delta += std::abs(next[i] - x[i]);
    }
    x.swap(next);
    if (tol > 0 && delta < tol) break;
  }
  return ni.Zip(x);
}

std::vector<int64_t> EccentricityKernel(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> ecc(n, 0);
  const int64_t nblocks =
      (n + kBfsSourcesPerBlock - 1) / kBfsSourcesPerBlock;
  ParallelForDynamic(0, nblocks, [&](int64_t b) {
    std::vector<int64_t> dist;
    const int64_t lo = b * kBfsSourcesPerBlock;
    const int64_t hi = std::min(n, lo + kBfsSourcesPerBlock);
    for (int64_t u = lo; u < hi; ++u) {
      const std::vector<int64_t> order = DenseBfs(view, u, &dist);
      int64_t e = 0;
      for (int64_t v : order) e = std::max(e, dist[v]);
      ecc[u] = e;
    }
  }, /*chunk=*/1);
  return ecc;
}

}  // namespace

Result<NodeValues> EigenvectorCentrality(const UndirectedGraph& g,
                                         int max_iters, double tol) {
  if (max_iters < 1) {
    return Status::InvalidArgument("EigenvectorCentrality: max_iters >= 1");
  }
  if (g.NumNodes() == 0) return NodeValues{};
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return EigenvectorKernel(*view, max_iters, tol);
}

NodeInts Eccentricities(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(EccentricityKernel(*view));
}

}  // namespace ringo
