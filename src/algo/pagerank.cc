#include "algo/pagerank.h"

#include <cmath>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/cancel.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

Status ValidateConfig(const PageRankConfig& c) {
  if (!(c.damping >= 0.0 && c.damping < 1.0)) {
    return Status::InvalidArgument("PageRank damping must be in [0, 1)");
  }
  if (c.max_iters < 1) {
    return Status::InvalidArgument("PageRank needs at least one iteration");
  }
  return Status::OK();
}

// The SpMV-style pull iteration: next = (1-d)·t + d·(Aᵀ D⁻¹ pr + s·t)
// where s is the rank mass parked on dangling nodes. The in-neighbor runs
// come straight from the pinned snapshot, visited ascending; the only
// per-call allocation is the inverse out-degree vector. The visitor form
// (rather than a span) lets the compressed CSR layout fuse its varint
// decode into the accumulation loop with no scratch buffer. Iteration
// stops early when the L1 delta drops below tol (delta-based convergence).
std::vector<double> DenseScores(const AlgoView& view,
                                const PageRankConfig& config,
                                const std::vector<double>& teleport,
                                bool parallel, trace::Span& span,
                                const std::vector<double>* init = nullptr,
                                int* iters_out = nullptr) {
  const int64_t n = view.NumNodes();
  std::vector<double> inv_out_deg(n);
  ParallelFor(0, n, [&](int64_t i) {
    const int64_t od = view.OutDegree(i);
    inv_out_deg[i] = od > 0 ? 1.0 / static_cast<double>(od) : 0.0;
  });
  const double d = config.damping;
  // A warm start seeds from a previous sum-to-1 score vector; each pull
  // iteration preserves total mass, so the invariant holds either way.
  std::vector<double> pr(init != nullptr ? *init : teleport), next(n);
  int iters_run = 0;
  for (int iter = 0; iter < config.max_iters; ++iter) {
    // Cooperative cancellation for deadline-bounded serving: the partial
    // vector returned after a break is discarded by the executor. With no
    // token installed this is one TLS load and never fires.
    if (cancel::Checkpoint()) break;
    ++iters_run;
    // Mass parked on dangling nodes teleports like everything else. The
    // blocked sum keeps the result bit-identical across thread counts and
    // between the sequential and parallel entry points (an `omp reduction`
    // combines partials in team-size-dependent order).
    const double dangling = DeterministicBlockSum(
        0, n,
        [&](int64_t i) { return inv_out_deg[i] == 0.0 ? pr[i] : 0.0; },
        parallel);

    auto pull = [&](int64_t i) {
      double acc = 0.0;
      view.ForEachIn(i, [&](int64_t u) { acc += pr[u] * inv_out_deg[u]; });
      next[i] = (1.0 - d) * teleport[i] + d * (acc + dangling * teleport[i]);
    };
    if (parallel) {
      ParallelForDynamic(0, n, pull);
    } else {
      for (int64_t i = 0; i < n; ++i) pull(i);
    }

    const double delta = DeterministicBlockSum(
        0, n, [&](int64_t i) { return std::abs(next[i] - pr[i]); }, parallel);
    pr.swap(next);
    if (config.tol > 0 && delta < config.tol) break;
  }
  span.AddAttr("iterations", static_cast<int64_t>(iters_run));
  if (iters_out != nullptr) *iters_out = iters_run;
  return pr;  // Dense scores; caller zips with ids.
}

// Shared driver: pins the snapshot, builds the teleport vector (uniform,
// or concentrated on `seeds`), and zips ids back on.
Result<NodeValues> RunPageRank(const DirectedGraph& g,
                               const PageRankConfig& config,
                               const std::vector<NodeId>* seeds,
                               bool parallel) {
  RINGO_RETURN_NOT_OK(ValidateConfig(config));
  if (g.NumNodes() == 0) return NodeValues{};
  trace::Span span("Algo/PageRank");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  span.AddAttr("parallel", static_cast<int64_t>(parallel ? 1 : 0));

  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  std::vector<double> teleport(n, 0.0);
  if (seeds == nullptr) {
    const double u = 1.0 / static_cast<double>(n);
    for (int64_t i = 0; i < n; ++i) teleport[i] = u;
  } else {
    for (NodeId s : *seeds) {
      const int64_t i = view->IndexOf(s);
      if (i < 0) {
        return Status::NotFound("seed node " + std::to_string(s) +
                                " is not in the graph");
      }
      teleport[i] += 1.0 / static_cast<double>(seeds->size());
    }
  }
  return view->node_index().Zip(
      DenseScores(*view, config, teleport, parallel, span));
}

}  // namespace

Result<NodeValues> PageRank(const DirectedGraph& g,
                            const PageRankConfig& config) {
  return RunPageRank(g, config, /*seeds=*/nullptr, /*parallel=*/false);
}

Result<std::vector<double>> PageRankScoresOnView(const AlgoView& view,
                                                 const PageRankConfig& config,
                                                 bool parallel) {
  RINGO_RETURN_NOT_OK(ValidateConfig(config));
  const int64_t n = view.NumNodes();
  if (n == 0) return std::vector<double>{};
  trace::Span span("Algo/PageRankOnView");
  span.AddAttr("nodes", n);
  span.AddAttr("parallel", static_cast<int64_t>(parallel ? 1 : 0));
  const std::vector<double> teleport(n, 1.0 / static_cast<double>(n));
  return DenseScores(view, config, teleport, parallel, span);
}

Result<NodeValues> ParallelPageRank(const DirectedGraph& g,
                                    const PageRankConfig& config) {
  return RunPageRank(g, config, /*seeds=*/nullptr, /*parallel=*/true);
}

Result<NodeValues> ParallelPageRankWarm(const DirectedGraph& g,
                                        PageRankWarmState* state,
                                        const PageRankConfig& config) {
  RINGO_RETURN_NOT_OK(ValidateConfig(config));
  if (state == nullptr) {
    return Status::InvalidArgument("ParallelPageRankWarm needs a state");
  }
  if (g.NumNodes() == 0) {
    *state = PageRankWarmState{};
    return NodeValues{};
  }
  trace::Span span("Algo/PageRankWarm");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());

  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  // Warm only when the previous scores use the same dense numbering. A
  // delta-patched view shares its predecessor's NodeIndex, so pointer
  // equality covers the streaming fast path; after a compaction or rebuild
  // the index object changes and the id-vector comparison decides.
  bool warm = false;
  if (state->view != nullptr &&
      static_cast<int64_t>(state->scores.size()) == n) {
    warm = &state->view->node_index() == &view->node_index() ||
           state->view->node_index().ids() == view->node_index().ids();
  }

  std::vector<double> teleport(n, 1.0 / static_cast<double>(n));
  int iters = 0;
  std::vector<double> scores =
      DenseScores(*view, config, teleport, /*parallel=*/true, span,
                     warm ? &state->scores : nullptr, &iters);
  RINGO_COUNTER_ADD("pagerank/warm_starts", warm ? 1 : 0);
  RINGO_COUNTER_ADD("pagerank/cold_starts", warm ? 0 : 1);
  span.AddAttr("warm", static_cast<int64_t>(warm ? 1 : 0));

  NodeValues out = view->node_index().Zip(scores);
  state->view = view;
  state->scores = std::move(scores);
  state->iterations = iters;
  state->warm = warm;
  return out;
}

Result<NodeValues> PersonalizedPageRank(const DirectedGraph& g,
                                        const std::vector<NodeId>& seeds,
                                        const PageRankConfig& config) {
  if (seeds.empty()) {
    return Status::InvalidArgument("PersonalizedPageRank needs >= 1 seed");
  }
  return RunPageRank(g, config, &seeds, /*parallel=*/false);
}

Result<NodeValues> WeightedPageRank(const DirectedGraph& g,
                                    const EdgeWeights& w,
                                    const PageRankConfig& config) {
  RINGO_RETURN_NOT_OK(ValidateConfig(config));
  trace::Span span("Algo/WeightedPageRank");
  const NodeIndex ni = NodeIndex::FromGraph(g);
  const int64_t n = ni.size();
  if (n == 0) return NodeValues{};
  span.AddAttr("nodes", n);
  span.AddAttr("edges", g.NumEdges());

  // Per-edge transition probabilities, stored with the in-adjacency so the
  // iteration stays a pull (no atomics).
  std::vector<int64_t> in_offsets(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    in_offsets[i + 1] =
        in_offsets[i] +
        static_cast<int64_t>(g.GetNode(ni.IdOf(i))->in.size());
  }
  std::vector<int64_t> in_nbrs(in_offsets[n]);
  std::vector<double> in_prob(in_offsets[n]);
  std::vector<double> out_total(n, 0.0);
  for (int64_t u = 0; u < n; ++u) {
    for (NodeId v : g.GetNode(ni.IdOf(u))->out) {
      const double wt = w.Get(ni.IdOf(u), v);
      if (wt < 0) {
        return Status::InvalidArgument("negative edge weight in PageRank");
      }
      out_total[u] += wt;
    }
  }
  {
    std::vector<int64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (int64_t u = 0; u < n; ++u) {
      const NodeId uid = ni.IdOf(u);
      for (NodeId vid : g.GetNode(uid)->out) {
        const int64_t v = ni.IndexOf(vid);
        const int64_t slot = cursor[v]++;
        in_nbrs[slot] = u;
        in_prob[slot] =
            out_total[u] > 0 ? w.Get(uid, vid) / out_total[u] : 0.0;
      }
    }
  }

  const double d = config.damping;
  const double teleport = 1.0 / static_cast<double>(n);
  std::vector<double> pr(n, teleport), next(n);
  for (int iter = 0; iter < config.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      if (out_total[i] <= 0) dangling += pr[i];
    }
    ParallelForDynamic(0, n, [&](int64_t i) {
      double acc = 0.0;
      for (int64_t o = in_offsets[i]; o < in_offsets[i + 1]; ++o) {
        acc += pr[in_nbrs[o]] * in_prob[o];
      }
      next[i] = (1.0 - d) * teleport + d * (acc + dangling * teleport);
    });
    double delta = 0.0;
    for (int64_t i = 0; i < n; ++i) delta += std::abs(next[i] - pr[i]);
    pr.swap(next);
    if (config.tol > 0 && delta < config.tol) break;
  }
  return ni.Zip(pr);
}

}  // namespace ringo
