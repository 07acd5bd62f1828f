// Dynamic graph analytics — the motivation for Ringo's hash-table-of-nodes
// representation (§2.2): nodes and edges can be added or removed cheaply
// (O(degree)) while analytics keep running, which CSR cannot do without
// O(|E|) rebuilds.
//
// Scenario: a streaming follow/unfollow feed. We apply the stream in
// batches, re-running analytics after each batch, and at the end compare
// the update cost against rebuilding a CSR snapshot each batch.
//
//   $ ./dynamic_graph
#include <cstdio>

#include "algo/algo_view.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "algo/transform.h"
#include "gen/graph_gen.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  // Start from a scale-free base graph.
  const auto base_edges = ringo::gen::RMatEdges(13, 60000, 7).ValueOrDie();
  ringo::DirectedGraph g = ringo::gen::BuildDirected(base_edges);
  std::printf("Base graph: %lld nodes, %lld edges\n\n",
              static_cast<long long>(g.NumNodes()),
              static_cast<long long>(g.NumEdges()));

  ringo::Rng rng(99);
  const int64_t n_ids = 1 << 13;
  constexpr int kBatches = 5;
  constexpr int kUpdatesPerBatch = 20000;

  double total_update_seconds = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    // Apply a batch of follows (70%) and unfollows (30%).
    ringo::Timer update_timer;
    int64_t added = 0, removed = 0;
    for (int i = 0; i < kUpdatesPerBatch; ++i) {
      const ringo::NodeId u = rng.UniformInt(0, n_ids - 1);
      const ringo::NodeId v = rng.UniformInt(0, n_ids - 1);
      if (u == v) continue;
      if (rng.Bernoulli(0.7)) {
        added += g.AddEdge(u, v) ? 1 : 0;
      } else {
        removed += g.DelEdge(u, v) ? 1 : 0;
      }
    }
    const double update_s = update_timer.ElapsedSeconds();
    total_update_seconds += update_s;

    // Analytics on the live graph.
    ringo::Timer analytics_timer;
    ringo::PageRankConfig cfg;
    cfg.max_iters = 10;
    cfg.tol = 0;
    const auto pr = ringo::ParallelPageRank(g, cfg).ValueOrDie();
    ringo::NodeId top = -1;
    double top_score = -1;
    for (const auto& [id, s] : pr) {
      if (s > top_score) {
        top_score = s;
        top = id;
      }
    }
    std::printf(
        "batch %d: +%lld -%lld edges in %.3fs | %lld edges | top node %lld "
        "(pr=%.5f) | pagerank %.3fs\n",
        batch + 1, static_cast<long long>(added),
        static_cast<long long>(removed), update_s,
        static_cast<long long>(g.NumEdges()), static_cast<long long>(top),
        top_score, analytics_timer.ElapsedSeconds());
  }

  // What would the same updates have cost on a static CSR? One rebuild per
  // batch is the *cheapest* CSR strategy (per-edge deletes are O(|E|)).
  // AlgoView is the CSR snapshot the analytics read; Build skips its cache.
  ringo::Timer csr_timer;
  for (int batch = 0; batch < kBatches; ++batch) {
    const auto snapshot = ringo::AlgoView::Build(g);
    (void)snapshot;
  }
  const double csr_rebuild_seconds = csr_timer.ElapsedSeconds();

  std::printf(
      "\nDynamic maintenance: %.3fs for %d batches of %d updates\n"
      "CSR rebuild per batch: %.3fs (and per-edge CSR deletes would be "
      "O(|E|) each)\n",
      total_update_seconds, kBatches, kUpdatesPerBatch, csr_rebuild_seconds);

  // Final structural report.
  const ringo::UndirectedGraph ug = ringo::ToUndirected(g);
  std::printf("Final graph triangles: %lld\n",
              static_cast<long long>(ringo::ParallelTriangleCount(ug)));
  return 0;
}
