// Thread-count-invariance gates for the §11 batched-update path: applying
// the same batch stream must leave bit-identical graphs at any thread
// count (the radix sorts are thread-count-deterministic and the per-node
// merges are partitioned), and algorithms reading through delta-patched
// snapshots must return bit-identical results at 1/2/4/hw threads. Runs
// under the TSan/ASan/UBSan `stress` CI matrix like every other gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/connectivity.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

// One deterministic batch stream: mixed inserts (may already exist) and
// deletes (may be absent) over a fixed node universe, so every thread
// count replays exactly the same mutations.
std::vector<std::pair<std::vector<Edge>, std::vector<Edge>>> MakeBatches(
    uint64_t seed, int n_batches, int ops_per_batch, NodeId max_id) {
  Rng rng(seed);
  std::vector<std::pair<std::vector<Edge>, std::vector<Edge>>> batches;
  for (int b = 0; b < n_batches; ++b) {
    std::vector<Edge> ins, del;
    for (int i = 0; i < ops_per_batch; ++i) {
      ins.push_back({rng.UniformInt(0, max_id), rng.UniformInt(0, max_id)});
      del.push_back({rng.UniformInt(0, max_id), rng.UniformInt(0, max_id)});
    }
    batches.push_back({std::move(ins), std::move(del)});
  }
  return batches;
}

TEST(DeltaCsrStressTest, DirectedApplyEdgeBatchThreadInvariance) {
  const auto batches = MakeBatches(0x5731, 6, 120, 149);
  std::set<Edge> baseline;
  std::vector<uint64_t> baseline_stamps;
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    DirectedGraph g = testing::RandomDirected(150, 600, 0xF00D);
    std::vector<uint64_t> stamps;
    for (const auto& [ins, del] : batches) {
      g.ApplyEdgeBatch(ins, del);
      stamps.push_back(g.MutationStamp());
    }
    const std::set<Edge> edges = testing::EdgeSet(g);
    if (threads == testing::StressThreadCounts().front()) {
      baseline = edges;
      baseline_stamps = stamps;
    } else {
      EXPECT_EQ(edges, baseline);
      EXPECT_EQ(stamps, baseline_stamps);
    }
  }
}

TEST(DeltaCsrStressTest, UndirectedApplyEdgeBatchThreadInvariance) {
  const auto batches = MakeBatches(0x7EA1, 6, 100, 119);
  std::set<Edge> baseline;
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    UndirectedGraph g = testing::RandomUndirected(120, 420, 0xFEED);
    for (const auto& [ins, del] : batches) {
      g.ApplyEdgeBatch(ins, del);
    }
    const std::set<Edge> edges = testing::EdgeSet(g);
    if (threads == testing::StressThreadCounts().front()) {
      baseline = edges;
    } else {
      EXPECT_EQ(edges, baseline);
    }
  }
}

// Results of algorithms reading through a delta-patched snapshot (batches
// applied after the base view was built, journal replayed on read) must be
// bit-identical across thread counts — including the patch construction
// itself, whose arena layout is fixed by deterministic prefix sums.
TEST(DeltaCsrStressTest, DeltaMergedDirectedReadsThreadInvariance) {
  const auto batches = MakeBatches(0xD00D, 4, 80, 139);
  deltacsr::ScopedEnable on(true);
  deltacsr::ScopedCompactionFraction no_compact(2.0);  // Stay on patches.
  PageRankConfig cfg;
  cfg.max_iters = 25;
  cfg.tol = 0;

  NodeValues pr_base;
  ComponentLabels scc_base;
  NodeInts bfs_base;
  int64_t patched_base = -1;
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    DirectedGraph g = testing::RandomDirected(140, 560, 0xBEEF);
    AlgoView::Of(g);  // Pin a base snapshot so batches take the delta path.
    for (const auto& [ins, del] : batches) {
      g.ApplyEdgeBatch(ins, del);
    }
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    ASSERT_GT(view->PatchedNodes(), 0);  // The delta path actually ran.
    const NodeValues pr = ParallelPageRank(g, cfg).ValueOrDie();
    const ComponentLabels scc = StronglyConnectedComponents(g);
    const NodeInts bfs = BfsDistances(g, g.SortedNodeIds().front());
    if (threads == testing::StressThreadCounts().front()) {
      pr_base = pr;
      scc_base = scc;
      bfs_base = bfs;
      patched_base = view->PatchedNodes();
    } else {
      EXPECT_EQ(view->PatchedNodes(), patched_base);
      ASSERT_EQ(pr.size(), pr_base.size());
      for (size_t i = 0; i < pr.size(); ++i) {
        EXPECT_EQ(pr[i].first, pr_base[i].first);
        // Bit-identical: same spans, same deterministic block sums.
        EXPECT_EQ(pr[i].second, pr_base[i].second);
      }
      EXPECT_EQ(scc, scc_base);
      EXPECT_EQ(bfs, bfs_base);
    }
  }
}

TEST(DeltaCsrStressTest, DeltaMergedUndirectedReadsThreadInvariance) {
  const auto batches = MakeBatches(0xCAB, 4, 70, 99);
  deltacsr::ScopedEnable on(true);
  deltacsr::ScopedCompactionFraction no_compact(2.0);

  int64_t tri_base = -1;
  ComponentLabels cc_base;
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    UndirectedGraph g = testing::RandomUndirected(100, 350, 0xACED);
    AlgoView::Of(g);
    for (const auto& [ins, del] : batches) {
      g.ApplyEdgeBatch(ins, del);
    }
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    ASSERT_GT(view->PatchedNodes(), 0);
    const int64_t tri = ParallelTriangleCount(g);
    const ComponentLabels cc = ConnectedComponents(g);
    if (threads == testing::StressThreadCounts().front()) {
      tri_base = tri;
      cc_base = cc;
    } else {
      EXPECT_EQ(tri, tri_base);
      EXPECT_EQ(cc, cc_base);
    }
  }
}

// The compaction decision itself must be thread-count-invariant: the
// patched fraction is a deterministic function of the batch stream, so
// whether a read compacts or patches cannot depend on the thread count.
TEST(DeltaCsrStressTest, CompactionDecisionThreadInvariance) {
  const auto batches = MakeBatches(0xC0, 8, 60, 89);
  deltacsr::ScopedEnable on(true);
  deltacsr::ScopedCompactionFraction threshold(0.3);
  std::vector<double> fractions_base;
  for (const int threads : testing::StressThreadCounts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads tc(threads);
    DirectedGraph g = testing::RandomDirected(90, 360, 0x9);
    AlgoView::Of(g);
    std::vector<double> fractions;
    for (const auto& [ins, del] : batches) {
      g.ApplyEdgeBatch(ins, del);
      fractions.push_back(AlgoView::Of(g)->DeltaFraction());
    }
    if (threads == testing::StressThreadCounts().front()) {
      fractions_base = fractions;
    } else {
      EXPECT_EQ(fractions, fractions_base);
    }
  }
}

}  // namespace
}  // namespace ringo
