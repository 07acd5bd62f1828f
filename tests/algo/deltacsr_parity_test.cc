// Delta-vs-rebuild parity suite (DESIGN.md §11). Two identical graphs run
// the same scripted batch/read sequence; one arm refreshes its AlgoView
// through the delta-patch path (deltacsr enabled), the other through the
// legacy full rebuild (deltacsr::ScopedEnable(false) — the §11 parity
// oracle). After every read the two snapshots must be structurally
// identical span-by-span, and algorithm outputs must agree bit-exactly for
// discrete results and to ≤1e-12 for floats. The matrix covers graph
// families × directed/undirected, deletion and tombstone-heavy scripts,
// forced compaction, canceling batches, and journal-invalidating
// mutations.
//
// The suite also pins the AlgoView cache-counter contract — the exact
// build/hit/invalidate/delta_apply/compact counts for a scripted
// mutate/read trace, at every thread count — and the warm-start PageRank
// convergence-equivalence guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "gen/graph_gen.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ringo {
namespace {

constexpr double kTol = 1e-12;

// One scripted step: a batch to apply to both arms (empty = read-only).
struct Batch {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
};

// ----------------------------------------------------------- batch makers

template <typename Graph>
std::vector<Edge> CurrentEdges(const Graph& g) {
  std::vector<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.push_back({u, v}); });
  return edges;
}

// Random mixed batch over the existing node set (no node creation, so the
// delta journal stays replayable). Insert samples may collide with live
// edges and delete samples may miss — the netting logic is part of what is
// under test.
template <typename Graph>
Batch MixedBatch(const Graph& g, Rng& rng, int n_ins, int n_del) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const std::vector<Edge> edges = CurrentEdges(g);
  Batch b;
  const int64_t n = static_cast<int64_t>(ids.size());
  for (int i = 0; i < n_ins; ++i) {
    b.inserts.push_back({ids[rng.UniformInt(0, n - 1)],
                         ids[rng.UniformInt(0, n - 1)]});
  }
  for (int i = 0; i < n_del && !edges.empty(); ++i) {
    b.deletes.push_back(
        edges[rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1)]);
  }
  return b;
}

// Deletes every other live edge: the tombstone-heavy case, where patched
// runs shrink instead of grow.
template <typename Graph>
Batch HalfDeletionBatch(const Graph& g) {
  Batch b;
  const std::vector<Edge> edges = CurrentEdges(g);
  for (size_t i = 0; i < edges.size(); i += 2) b.deletes.push_back(edges[i]);
  return b;
}

// --------------------------------------------------------- parity checks

void ExpectViewParity(const AlgoView& a, const AlgoView& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.NumOutArcs(), b.NumOutArcs());
  EXPECT_EQ(a.NumInArcs(), b.NumInArcs());
  for (int64_t i = 0; i < a.NumNodes(); ++i) {
    ASSERT_EQ(a.IdOf(i), b.IdOf(i));
    const auto ao = a.Out(i);
    const auto bo = b.Out(i);
    ASSERT_EQ(ao.size(), bo.size()) << "out degree of dense index " << i;
    for (size_t k = 0; k < ao.size(); ++k) ASSERT_EQ(ao[k], bo[k]);
    const auto ai = a.In(i);
    const auto bi = b.In(i);
    ASSERT_EQ(ai.size(), bi.size()) << "in degree of dense index " << i;
    for (size_t k = 0; k < ai.size(); ++k) ASSERT_EQ(ai[k], bi[k]);
  }
}

template <typename T>
void ExpectExactEqual(const std::vector<std::pair<NodeId, T>>& a,
                      const std::vector<std::pair<NodeId, T>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first);
    ASSERT_EQ(a[i].second, b[i].second);
  }
}

void ExpectFloatEqual(const NodeValues& a, const NodeValues& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first, b[i].first);
    ASSERT_NEAR(a[i].second, b[i].second, kTol);
  }
}

// Reads both arms (delta arm with patching on, oracle arm with patching
// off), compares the snapshots structurally, then compares algorithm
// results computed over those snapshots.
void ReadAndCompare(const DirectedGraph& gd, const DirectedGraph& gr,
                    const std::string& what) {
  std::shared_ptr<const AlgoView> va, vb;
  NodeValues pr_a, pr_b;
  ComponentLabels wcc_a, wcc_b, scc_a, scc_b;
  NodeInts bfs_a, bfs_b;
  PageRankConfig cfg;
  cfg.max_iters = 30;
  cfg.tol = 0;  // Fixed iteration count: no convergence-path variance.
  const NodeId src =
      gd.NumNodes() > 0 ? gd.SortedNodeIds().front() : NodeId{0};
  {
    deltacsr::ScopedEnable on(true);
    va = AlgoView::Of(gd);
    pr_a = ParallelPageRank(gd, cfg).ValueOrDie();
    wcc_a = WeaklyConnectedComponents(gd);
    scc_a = StronglyConnectedComponents(gd);
    if (gd.NumNodes() > 0) bfs_a = BfsDistances(gd, src);
  }
  {
    deltacsr::ScopedEnable off(false);
    vb = AlgoView::Of(gr);
    pr_b = ParallelPageRank(gr, cfg).ValueOrDie();
    wcc_b = WeaklyConnectedComponents(gr);
    scc_b = StronglyConnectedComponents(gr);
    if (gr.NumNodes() > 0) bfs_b = BfsDistances(gr, src);
  }
  ExpectViewParity(*va, *vb, what);
  SCOPED_TRACE(what);
  ExpectFloatEqual(pr_a, pr_b);
  ExpectExactEqual(wcc_a, wcc_b);
  ExpectExactEqual(scc_a, scc_b);
  ExpectExactEqual(bfs_a, bfs_b);
}

void ReadAndCompare(const UndirectedGraph& gd, const UndirectedGraph& gr,
                    const std::string& what) {
  std::shared_ptr<const AlgoView> va, vb;
  int64_t tri_a = 0, tri_b = 0;
  ComponentLabels cc_a, cc_b;
  NodeInts core_a, core_b, bfs_a, bfs_b;
  const NodeId src =
      gd.NumNodes() > 0 ? gd.SortedNodeIds().front() : NodeId{0};
  {
    deltacsr::ScopedEnable on(true);
    va = AlgoView::Of(gd);
    tri_a = ParallelTriangleCount(gd);
    cc_a = ConnectedComponents(gd);
    core_a = CoreNumbers(gd);
    if (gd.NumNodes() > 0) bfs_a = BfsDistances(gd, src);
  }
  {
    deltacsr::ScopedEnable off(false);
    vb = AlgoView::Of(gr);
    tri_b = ParallelTriangleCount(gr);
    cc_b = ConnectedComponents(gr);
    core_b = CoreNumbers(gr);
    if (gr.NumNodes() > 0) bfs_b = BfsDistances(gr, src);
  }
  ExpectViewParity(*va, *vb, what);
  SCOPED_TRACE(what);
  EXPECT_EQ(tri_a, tri_b);
  ExpectExactEqual(cc_a, cc_b);
  ExpectExactEqual(core_a, core_b);
  ExpectExactEqual(bfs_a, bfs_b);
}

// Runs the standard script against a pair of identically built graphs:
// mixed batch, back-to-back batches between reads, tombstone-heavy
// deletion wave, canceling batches, forced compaction, and a
// journal-invalidating single-edge mutation at the end.
template <typename Graph>
void RunStandardScript(Graph gd, Graph gr, uint64_t seed,
                       const std::string& family) {
  ASSERT_EQ(testing::EdgeSet(gd), testing::EdgeSet(gr));
  Rng rng(seed);
  auto apply = [&](const Batch& b) {
    gd.ApplyEdgeBatch(b.inserts, b.deletes);
    gr.ApplyEdgeBatch(b.inserts, b.deletes);
  };

  ReadAndCompare(gd, gr, family + "/initial");

  apply(MixedBatch(gd, rng, 25, 10));
  ReadAndCompare(gd, gr, family + "/mixed");

  // Two batches between reads: multi-batch journal replay.
  apply(MixedBatch(gd, rng, 15, 15));
  apply(MixedBatch(gd, rng, 15, 15));
  ReadAndCompare(gd, gr, family + "/two_batches");

  // Tombstone-heavy: half the edges disappear in one batch.
  apply(HalfDeletionBatch(gd));
  ReadAndCompare(gd, gr, family + "/half_deleted");

  // Canceling pair: the second batch deletes exactly what the first
  // inserted, so the net delta is empty but the stamp moved twice.
  {
    Batch grow = MixedBatch(gd, rng, 20, 0);
    apply(grow);
    std::vector<Edge> added;
    for (const Edge& e : grow.inserts) {
      if (gd.HasEdge(e.first, e.second)) added.push_back(e);
    }
    apply(Batch{{}, added});
    ReadAndCompare(gd, gr, family + "/canceled");
  }

  // Forced compaction: with the threshold at 0 any patched arc triggers
  // the fold-into-fresh-base path, which must also match the oracle.
  {
    deltacsr::ScopedCompactionFraction force(0.0);
    apply(MixedBatch(gd, rng, 10, 5));
    ReadAndCompare(gd, gr, family + "/compacted");
  }

  // Non-batch mutation: journal invalidated, both arms rebuild.
  const std::vector<NodeId> ids = gd.SortedNodeIds();
  if (ids.size() >= 2) {
    gd.DelEdge(ids[0], ids[1]);
    gr.DelEdge(ids[0], ids[1]);
    gd.AddEdge(ids[1], ids[0]);
    gr.AddEdge(ids[1], ids[0]);
    ReadAndCompare(gd, gr, family + "/single_edge_fallback");
  }
}

// ------------------------------------------------------ directed families

TEST(DeltaCsrParityTest, DirectedRandom) {
  RunStandardScript(testing::RandomDirected(120, 500, 0xD1),
                    testing::RandomDirected(120, 500, 0xD1), 0xA1,
                    "directed_random");
}

TEST(DeltaCsrParityTest, DirectedRmat) {
  const auto edges = gen::RMatEdges(7, 900, 0xBEEF).ValueOrDie();
  RunStandardScript(gen::BuildDirected(edges), gen::BuildDirected(edges),
                    0xA2, "directed_rmat");
}

TEST(DeltaCsrParityTest, DirectedStar) {
  auto make = [] {
    DirectedGraph star;
    for (NodeId i = 0; i <= 40; ++i) star.AddNode(i);
    for (NodeId i = 1; i <= 40; ++i) star.AddEdge(i, 0);
    star.AddEdge(0, 1);
    return star;
  };
  RunStandardScript(make(), make(), 0xA3, "directed_star");
}

TEST(DeltaCsrParityTest, DirectedChainWithSelfLoops) {
  auto make = [] {
    DirectedGraph chain;
    for (NodeId i = 0; i < 60; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 60; ++i) chain.AddEdge(i, i + 1);
    for (NodeId i = 0; i < 60; i += 9) chain.AddEdge(i, i);
    return chain;
  };
  RunStandardScript(make(), make(), 0xA4, "directed_chain_loops");
}

// ---------------------------------------------------- undirected families

TEST(DeltaCsrParityTest, UndirectedRandom) {
  RunStandardScript(testing::RandomUndirected(120, 400, 0xE1),
                    testing::RandomUndirected(120, 400, 0xE1), 0xB1,
                    "undirected_random");
}

TEST(DeltaCsrParityTest, UndirectedRmat) {
  const auto edges = gen::RMatEdges(7, 800, 0xFACE).ValueOrDie();
  RunStandardScript(gen::BuildUndirected(edges), gen::BuildUndirected(edges),
                    0xB2, "undirected_rmat");
}

TEST(DeltaCsrParityTest, UndirectedStarWithSelfLoops) {
  auto make = [] {
    UndirectedGraph g = gen::Star(48);
    for (NodeId i = 0; i < 48; i += 5) g.AddEdge(i, i);
    return g;
  };
  RunStandardScript(make(), make(), 0xB3, "undirected_star_loops");
}

TEST(DeltaCsrParityTest, UndirectedDisconnected) {
  auto make = [] {
    UndirectedGraph g = testing::RandomUndirected(80, 200, 0xB4);
    for (NodeId i = 0; i < 30; ++i) g.AddNode(500 + i);
    for (NodeId i = 0; i + 1 < 30; ++i) g.AddEdge(500 + i, 500 + i + 1);
    return g;
  };
  RunStandardScript(make(), make(), 0xB4, "undirected_disconnected");
}

// Deleting *every* edge via batches: the patched view must degrade to
// all-empty spans and algorithms must behave as on an edgeless graph.
TEST(DeltaCsrParityTest, DirectedDrainToEmpty) {
  DirectedGraph gd = testing::RandomDirected(60, 240, 0xDEAD);
  DirectedGraph gr = testing::RandomDirected(60, 240, 0xDEAD);
  ReadAndCompare(gd, gr, "drain/initial");
  // Three waves of half-deletions, then one final sweep.
  for (int wave = 0; wave < 3; ++wave) {
    const Batch b = HalfDeletionBatch(gd);
    gd.ApplyEdgeBatch(b.inserts, b.deletes);
    gr.ApplyEdgeBatch(b.inserts, b.deletes);
    ReadAndCompare(gd, gr, "drain/wave");
  }
  const std::vector<Edge> rest = CurrentEdges(gd);
  gd.ApplyEdgeBatch({}, rest);
  gr.ApplyEdgeBatch({}, rest);
  ASSERT_EQ(gd.NumEdges(), 0);
  ReadAndCompare(gd, gr, "drain/empty");
}

// ----------------------------------------------- cache-counter exactness

struct CounterBaseline {
  int64_t build, hit, invalidate, delta_apply, compact, stale_patch;
  static CounterBaseline Take() {
    return {metrics::CounterValue("algo_view/build"),
            metrics::CounterValue("algo_view/hit"),
            metrics::CounterValue("algo_view/invalidate"),
            metrics::CounterValue("algo_view/delta_apply"),
            metrics::CounterValue("algo_view/compact"),
            metrics::CounterValue("algo_view/stale_patch")};
  }
};

// The scripted mutate/read trace and its exact expected counter deltas,
// replayed at every thread count. Each Of() call lands in exactly one of
// {hit, build, delta_apply, compact}; a stale snapshot is additionally
// counted as stale_patch when it was delta-patched forward and as
// invalidate when it was discarded by a rebuild or compaction.
TEST(AlgoViewCacheCountersTest, ScriptedTraceExactAtEveryThreadCount) {
  metrics::SetEnabled(true);
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    deltacsr::ScopedEnable on(true);
    deltacsr::ScopedCompactionFraction no_compact(2.0);  // Never compact.
    DirectedGraph g = testing::RandomDirected(80, 320, 0x7AC3);
    const CounterBaseline c0 = CounterBaseline::Take();
    auto expect = [&](int64_t build, int64_t hit, int64_t invalidate,
                      int64_t delta_apply, int64_t compact,
                      int64_t stale_patch) {
      const CounterBaseline c = CounterBaseline::Take();
      EXPECT_EQ(c.build - c0.build, build);
      EXPECT_EQ(c.hit - c0.hit, hit);
      EXPECT_EQ(c.invalidate - c0.invalidate, invalidate);
      EXPECT_EQ(c.delta_apply - c0.delta_apply, delta_apply);
      EXPECT_EQ(c.compact - c0.compact, compact);
      EXPECT_EQ(c.stale_patch - c0.stale_patch, stale_patch);
    };

    // First absent pair in id order — a guaranteed-effective insert, so
    // every scripted batch really bumps the stamp.
    auto absent_edge = [&g]() -> Edge {
      for (NodeId u = 0; u < 80; ++u) {
        for (NodeId v = 0; v < 80; ++v) {
          if (u != v && !g.HasEdge(u, v)) return {u, v};
        }
      }
      ADD_FAILURE() << "graph is complete";
      return {0, 0};
    };

    AlgoView::Of(g);  // Cold: full build.
    expect(1, 0, 0, 0, 0, 0);
    AlgoView::Of(g);  // Unchanged: cache hit.
    expect(1, 1, 0, 0, 0, 0);

    const Edge e1 = absent_edge();
    g.ApplyEdgeBatch({e1}, {});  // Journaled batch.
    AlgoView::Of(g);  // Stale but covered: delta apply.
    expect(1, 1, 0, 1, 0, 1);
    AlgoView::Of(g);  // Patched view is fresh: hit.
    expect(1, 2, 0, 1, 0, 1);

    g.ApplyEdgeBatch({}, {e1});  // Two batches between reads...
    g.ApplyEdgeBatch({absent_edge()}, {});
    AlgoView::Of(g);  // ...still one delta apply.
    expect(1, 2, 0, 2, 0, 2);

    ASSERT_TRUE(g.AddEdge(3, 76) || g.DelEdge(3, 76));  // Not journalable.
    AlgoView::Of(g);  // Journal gap: full rebuild.
    expect(2, 2, 1, 2, 0, 2);

    {
      deltacsr::ScopedCompactionFraction always(0.0);
      g.ApplyEdgeBatch({absent_edge()}, {});
      AlgoView::Of(g);  // Patched fraction > 0: compaction (not a build).
      expect(2, 2, 2, 2, 1, 2);
    }

    {
      deltacsr::ScopedEnable off(false);
      g.ApplyEdgeBatch({absent_edge()}, {});
      AlgoView::Of(g);  // Kill switch: rebuild even though covered.
      expect(3, 2, 3, 2, 1, 2);
    }

    AlgoView::Of(g);  // Steady state again: hit.
    expect(3, 3, 3, 2, 1, 2);
  }
}

// ------------------------------------------------- warm-start PageRank

// Warm and cold starts must converge to the same fixed point: power
// iteration with damping < 1 has a unique stationary vector, so seeding
// from the previous ranks only changes the path, not the destination.
TEST(PageRankWarmStartTest, ConvergenceEquivalenceOnDeltaBatches) {
  DirectedGraph g = testing::RandomDirected(150, 700, 0x9A6E);
  PageRankConfig cfg;
  cfg.tol = 1e-13;
  cfg.max_iters = 300;

  PageRankWarmState state;
  const NodeValues cold0 = ParallelPageRankWarm(g, &state, cfg).ValueOrDie();
  EXPECT_FALSE(state.warm);  // Nothing to seed from yet.
  const int cold_iters = state.iterations;
  ExpectFloatEqual(cold0, ParallelPageRank(g, cfg).ValueOrDie());

  Rng rng(0x11);
  for (int round = 0; round < 3; ++round) {
    const Batch b = MixedBatch(g, rng, 12, 6);
    g.ApplyEdgeBatch(b.inserts, b.deletes);
    const NodeValues warm = ParallelPageRankWarm(g, &state, cfg).ValueOrDie();
    EXPECT_TRUE(state.warm);
    // A small batch leaves the start vector near the new fixed point, so
    // the warm run must not need more iterations than a cold one.
    EXPECT_LE(state.iterations, cold_iters);
    const NodeValues cold = ParallelPageRank(g, cfg).ValueOrDie();
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < warm.size(); ++i) {
      ASSERT_EQ(warm[i].first, cold[i].first);
      // Both vectors are within cfg.tol of the fixed point (L1), so they
      // agree to a small multiple of it.
      ASSERT_NEAR(warm[i].second, cold[i].second, 1e-10);
    }
  }
}

TEST(PageRankWarmStartTest, ColdRestartAfterNodeSetChange) {
  DirectedGraph g = testing::RandomDirected(60, 240, 0x33);
  PageRankConfig cfg;
  cfg.tol = 1e-12;
  cfg.max_iters = 200;
  PageRankWarmState state;
  ASSERT_TRUE(ParallelPageRankWarm(g, &state, cfg).ok());
  g.ApplyEdgeBatch({{0, 59}}, {});
  ASSERT_TRUE(ParallelPageRankWarm(g, &state, cfg).ok());
  EXPECT_TRUE(state.warm);
  // A new node changes the dense numbering: the next call must cold-start.
  ASSERT_TRUE(g.AddEdge(1, 1000));
  const NodeValues after = ParallelPageRankWarm(g, &state, cfg).ValueOrDie();
  EXPECT_FALSE(state.warm);
  ASSERT_EQ(after.size(), static_cast<size_t>(g.NumNodes()));
  ExpectFloatEqual(after, ParallelPageRank(g, cfg).ValueOrDie());
}

}  // namespace
}  // namespace ringo
