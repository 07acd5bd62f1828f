#include "algo/algo_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/compact_csr.h"
#include "algo/node_index.h"
#include "gen/graph_gen.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(NodeIndexTest, DenseUniverseRoundTrips) {
  // Ids span ~n, so the direct-address path is taken.
  std::vector<NodeId> ids = {9, 2, 5, 0, 7, 3};
  const NodeIndex ni = NodeIndex::FromIds(ids);
  ASSERT_EQ(ni.size(), 6);
  for (int64_t i = 0; i < ni.size(); ++i) {
    EXPECT_EQ(ni.IndexOf(ni.IdOf(i)), i);
    if (i > 0) {
      EXPECT_LT(ni.IdOf(i - 1), ni.IdOf(i));
    }
  }
  EXPECT_EQ(ni.IndexOf(1), -1);   // Hole inside the span.
  EXPECT_EQ(ni.IndexOf(-1), -1);  // Below base.
  EXPECT_EQ(ni.IndexOf(10), -1);  // Above span.
}

TEST(NodeIndexTest, SparseUniverseFallsBackToHash) {
  const std::vector<NodeId> ids = {-5'000'000'000'000, 7, 1'000'000'000'000};
  const NodeIndex ni = NodeIndex::FromIds(ids);
  ASSERT_EQ(ni.size(), 3);
  EXPECT_EQ(ni.IdOf(0), -5'000'000'000'000);
  EXPECT_EQ(ni.IndexOf(7), 1);
  EXPECT_EQ(ni.IndexOf(1'000'000'000'000), 2);
  EXPECT_EQ(ni.IndexOf(8), -1);
  EXPECT_EQ(ni.IndexOf(0), -1);
}

TEST(NodeIndexTest, EmptyIds) {
  const NodeIndex ni = NodeIndex::FromIds({});
  EXPECT_EQ(ni.size(), 0);
  EXPECT_EQ(ni.IndexOf(0), -1);
}

// Node ids spread over ~10^13 values, far past NodeIndex's dense-universe
// bound (a span of at most 4n + 16), so the view's id lookup takes the
// hash fallback. Random edges, self-loops included.
template <typename Graph>
Graph SparseIdGraph(uint64_t seed) {
  Graph g;
  std::vector<NodeId> ids;
  for (int64_t i = 0; i < 60; ++i) {
    ids.push_back(-5'000'000'000'000 + i * 170'000'000'003);
  }
  for (const NodeId id : ids) g.AddNode(id);
  Rng rng(seed);
  for (int k = 0; k < 240; ++k) {
    g.AddEdge(ids[rng.UniformInt(0, 59)], ids[rng.UniformInt(0, 59)]);
  }
  return g;
}

// The ids of a run of dense indices.
std::vector<NodeId> RunIds(const AlgoView& view, const NbrSpan& run) {
  std::vector<NodeId> ids;
  for (const int64_t j : run) ids.push_back(view.IdOf(j));
  return ids;
}

// Every node maps to its ascending-id index and back.
void ExpectNodeIndexMatches(const AlgoView& view,
                            const std::vector<NodeId>& sorted_ids) {
  ASSERT_EQ(view.NumNodes(), static_cast<int64_t>(sorted_ids.size()));
  for (int64_t i = 0; i < view.NumNodes(); ++i) {
    ASSERT_EQ(view.IdOf(i), sorted_ids[i]);
    ASSERT_EQ(view.IndexOf(sorted_ids[i]), i);
  }
}

// Directed: Out(i) and In(i) list exactly the hash adjacency's out- and
// in-neighbors, id for id, in the same ascending order, on the plain and
// the compressed layout.
TEST(AlgoViewTest, DirectedViewMatchesAdjacency) {
  std::vector<testing::GraphFamily<DirectedGraph>> fams =
      testing::DirectedFamilies();
  fams.push_back({"sparse_ids", SparseIdGraph<DirectedGraph>(3)});
  for (const bool compact : {false, true}) {
    compactcsr::ScopedEnable layout(compact);
    for (const auto& fam : fams) {
      SCOPED_TRACE(fam.name + (compact ? " compact" : " plain"));
      const std::shared_ptr<const AlgoView> view = AlgoView::Build(fam.g);
      EXPECT_TRUE(view->directed());
      EXPECT_EQ(view->compressed(), compact);
      EXPECT_EQ(view->NumOutArcs(), fam.g.NumEdges());
      EXPECT_EQ(view->NumInArcs(), fam.g.NumEdges());
      ExpectNodeIndexMatches(*view, fam.g.SortedNodeIds());
      for (int64_t i = 0; i < view->NumNodes(); ++i) {
        const DirectedGraph::NodeData* nd = fam.g.GetNode(view->IdOf(i));
        ASSERT_NE(nd, nullptr);
        EXPECT_EQ(RunIds(*view, view->Out(i)), nd->out) << view->IdOf(i);
        EXPECT_EQ(RunIds(*view, view->In(i)), nd->in) << view->IdOf(i);
        EXPECT_EQ(view->OutDegree(i), static_cast<int64_t>(nd->out.size()));
        EXPECT_EQ(view->InDegree(i), static_cast<int64_t>(nd->in.size()));
      }
    }
  }
}

// Undirected: one stored neighbor array serves Out and In, and every run
// lists exactly the hash adjacency's neighbors (a self-loop once), id for
// id, on the plain and the compressed layout.
TEST(AlgoViewTest, UndirectedViewSharesNeighborArray) {
  std::vector<testing::GraphFamily<UndirectedGraph>> fams =
      testing::UndirectedFamilies();
  fams.push_back({"sparse_ids", SparseIdGraph<UndirectedGraph>(5)});
  for (const bool compact : {false, true}) {
    compactcsr::ScopedEnable layout(compact);
    for (const auto& fam : fams) {
      SCOPED_TRACE(fam.name + (compact ? " compact" : " plain"));
      const std::shared_ptr<const AlgoView> view = AlgoView::Build(fam.g);
      EXPECT_FALSE(view->directed());
      EXPECT_EQ(view->compressed(), compact);
      ExpectNodeIndexMatches(*view, fam.g.SortedNodeIds());
      for (int64_t i = 0; i < view->NumNodes(); ++i) {
        const NbrSpan out = view->Out(i);
        const NbrSpan in = view->In(i);
        // Pointer-identical runs on the plain layout. On a compressed base
        // each call decodes into its own scratch buffer, so only content
        // equality holds there.
        if (!compact) {
          ASSERT_EQ(out.data(), in.data());
        }
        const UndirectedGraph::NodeData* nd = fam.g.GetNode(view->IdOf(i));
        ASSERT_NE(nd, nullptr);
        EXPECT_EQ(RunIds(*view, out), nd->nbrs) << view->IdOf(i);
        EXPECT_EQ(RunIds(*view, in), nd->nbrs) << view->IdOf(i);
        EXPECT_EQ(view->OutDegree(i), fam.g.Degree(view->IdOf(i)));
      }
    }
  }
}

TEST(AlgoViewTest, CacheHitAndInvalidateCounters) {
  metrics::SetEnabled(true);
  DirectedGraph g = testing::RandomDirected(60, 200, 7);
  const int64_t b0 = metrics::CounterValue("algo_view/build");
  const int64_t h0 = metrics::CounterValue("algo_view/hit");
  const int64_t i0 = metrics::CounterValue("algo_view/invalidate");

  const std::shared_ptr<const AlgoView> v1 = AlgoView::Of(g);
  EXPECT_EQ(metrics::CounterValue("algo_view/build"), b0 + 1);
  EXPECT_EQ(metrics::CounterValue("algo_view/hit"), h0);

  // Second call on the unmodified graph: same snapshot, no rebuild.
  const std::shared_ptr<const AlgoView> v2 = AlgoView::Of(g);
  EXPECT_EQ(v1.get(), v2.get());
  EXPECT_EQ(metrics::CounterValue("algo_view/build"), b0 + 1);
  EXPECT_EQ(metrics::CounterValue("algo_view/hit"), h0 + 1);
  EXPECT_EQ(metrics::CounterValue("algo_view/invalidate"), i0);

  // Mutation invalidates; the next call rebuilds.
  ASSERT_TRUE(g.AddEdge(1000, 1001));
  const std::shared_ptr<const AlgoView> v3 = AlgoView::Of(g);
  EXPECT_NE(v1.get(), v3.get());
  EXPECT_EQ(v3->NumNodes(), g.NumNodes());
  EXPECT_EQ(metrics::CounterValue("algo_view/build"), b0 + 2);
  EXPECT_EQ(metrics::CounterValue("algo_view/invalidate"), i0 + 1);
}

TEST(AlgoViewTest, MutationStampTracksStructuralChanges) {
  DirectedGraph g;
  uint64_t last = g.MutationStamp();
  auto bumped = [&](bool expect) {
    const bool did = g.MutationStamp() != last;
    last = g.MutationStamp();
    return did == expect;
  };
  EXPECT_TRUE(g.AddNode(1));
  EXPECT_TRUE(bumped(true));
  EXPECT_FALSE(g.AddNode(1));  // Duplicate: no structural change.
  EXPECT_TRUE(bumped(false));
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(bumped(true));
  EXPECT_FALSE(g.AddEdge(1, 2));
  EXPECT_TRUE(bumped(false));
  (void)g.NumNodes();
  (void)g.GetNode(1);
  (void)g.HasEdge(1, 2);
  EXPECT_TRUE(bumped(false));  // Queries never bump.
  EXPECT_TRUE(g.DelEdge(1, 2));
  EXPECT_TRUE(bumped(true));
  EXPECT_FALSE(g.DelEdge(1, 2));
  EXPECT_TRUE(bumped(false));
  EXPECT_TRUE(g.DelNode(1));
  EXPECT_TRUE(bumped(true));
}

TEST(AlgoViewTest, DeletionsInvalidateCachedView) {
  UndirectedGraph g = gen::Ring(8);
  const std::shared_ptr<const AlgoView> v1 = AlgoView::Of(g);
  EXPECT_EQ(v1->NumOutArcs(), 16);  // 8 edges, both directions.
  ASSERT_TRUE(g.DelEdge(0, 1));
  const std::shared_ptr<const AlgoView> v2 = AlgoView::Of(g);
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_EQ(v2->NumOutArcs(), 14);
}

TEST(AlgoViewTest, EmptyGraph) {
  const DirectedGraph g;
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  EXPECT_EQ(view->NumNodes(), 0);
  EXPECT_EQ(view->NumOutArcs(), 0);
  EXPECT_EQ(view->IndexOf(0), -1);
}

}  // namespace
}  // namespace ringo
