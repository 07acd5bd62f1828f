#include "graph/undirected_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "algo/kcore.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(UndirectedGraphTest, EdgesAreSymmetric) {
  UndirectedGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_FALSE(g.AddEdge(2, 1)) << "{1,2} already present";
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 1);
}

TEST(UndirectedGraphTest, DelEdgeEitherDirection) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.DelEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(UndirectedGraphTest, SelfLoopStoredOnce) {
  UndirectedGraph g;
  g.AddEdge(3, 3);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(3), 1);
  ASSERT_NE(g.GetNode(3), nullptr);
  EXPECT_EQ(g.GetNode(3)->nbrs, (std::vector<NodeId>{3}));
  EXPECT_TRUE(g.DelEdge(3, 3));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(UndirectedGraphTest, DelNodeDetachesNeighbors) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 1);
  EXPECT_TRUE(g.DelNode(1));
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_EQ(g.Degree(2), 1);
}

TEST(UndirectedGraphTest, ForEachEdgeVisitsOncePerEdge) {
  UndirectedGraph g = testing::RandomUndirected(40, 200, 3);
  g.AddEdge(7, 7);
  int64_t count = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    EXPECT_LE(u, v);
    ++count;
  });
  EXPECT_EQ(count, g.NumEdges());
}

TEST(UndirectedGraphTest, SortedAdjacencyInvariant) {
  UndirectedGraph g = testing::RandomUndirected(30, 150, 9);
  g.ForEachNode([](NodeId, const UndirectedGraph::NodeData& nd) {
    EXPECT_TRUE(std::is_sorted(nd.nbrs.begin(), nd.nbrs.end()));
  });
}

TEST(UndirectedGraphTest, ChurnMatchesReference) {
  UndirectedGraph g;
  Rng rng(31);
  std::set<Edge> ref;  // Normalized (min, max).
  for (int step = 0; step < 4000; ++step) {
    NodeId u = rng.UniformInt(0, 15);
    NodeId v = rng.UniformInt(0, 15);
    const Edge key{std::min(u, v), std::max(u, v)};
    if (rng.Bernoulli(0.6)) {
      EXPECT_EQ(g.AddEdge(u, v), ref.insert(key).second);
    } else {
      EXPECT_EQ(g.DelEdge(u, v), ref.erase(key) > 0);
    }
  }
  EXPECT_EQ(g.NumEdges(), static_cast<int64_t>(ref.size()));
  EXPECT_EQ(testing::EdgeSet(g), ref);
}

// Same as DirectedGraphTest.ExtremeIdsKeepAutoIdsUnused.
TEST(UndirectedGraphTest, ExtremeIdsKeepAutoIdsUnused) {
  UndirectedGraph g;
  EXPECT_TRUE(g.AddNode(INT64_MIN));
  EXPECT_TRUE(g.AddNode(INT64_MAX));
  EXPECT_TRUE(g.AddEdge(INT64_MAX, INT64_MIN));
  EXPECT_TRUE(g.AddEdge(0, INT64_MAX));
  std::set<NodeId> seen = {INT64_MIN, 0, INT64_MAX};
  for (int i = 0; i < 3; ++i) {
    const NodeId id = g.AddNode();
    EXPECT_TRUE(seen.insert(id).second) << id;
    EXPECT_EQ(g.NumNodes(), static_cast<int64_t>(seen.size()));
  }
  EXPECT_EQ(g.NumEdges(), 2);

  UndirectedGraph b;
  b.ApplyEdgeBatch({{INT64_MAX, INT64_MIN}, {INT64_MAX, INT64_MAX}}, {});
  const NodeId id = b.AddNode();
  EXPECT_NE(id, INT64_MIN);
  EXPECT_NE(id, INT64_MAX);
  EXPECT_EQ(b.NumNodes(), 3);
}

TEST(UndirectedGraphTest, SameStructure) {
  UndirectedGraph a = testing::RandomUndirected(20, 60, 2);
  UndirectedGraph b = testing::RandomUndirected(20, 60, 2);
  EXPECT_TRUE(a.SameStructure(b));
  b.AddEdge(0, 19);
  EXPECT_FALSE(a.SameStructure(b) && !a.HasEdge(0, 19));
}

// Node ids of a snapshot, ascending.
std::vector<NodeId> ViewIds(const UndirectedGraph& g) {
  const auto view = AlgoView::Of(g);
  std::vector<NodeId> ids;
  for (int64_t i = 0; i < view->NumNodes(); ++i) ids.push_back(view->IdOf(i));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// (id, core number) pairs, ascending by id.
NodeInts Cores(const UndirectedGraph& g) {
  NodeInts cores = CoreNumbers(g);
  std::sort(cores.begin(), cores.end());
  return cores;
}

// See DirectedGraphTest.CopyAssignmentDropsCachedSnapshot.
TEST(UndirectedGraphTest, CopyAssignmentDropsCachedSnapshot) {
  UndirectedGraph a;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{1, 2, 3}));
  UndirectedGraph b;
  b.AddEdge(10, 20);
  b.AddEdge(20, 30);
  a = b;
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{10, 20, 30}));
  EXPECT_EQ(Cores(a), (NodeInts{{10, 1}, {20, 1}, {30, 1}}));
}

TEST(UndirectedGraphTest, MoveAssignmentDropsCachedSnapshot) {
  UndirectedGraph a;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{1, 2, 3}));
  UndirectedGraph c;
  c.AddEdge(10, 20);
  c.AddEdge(20, 30);
  EXPECT_EQ(ViewIds(c), (std::vector<NodeId>{10, 20, 30}));
  a = std::move(c);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{10, 20, 30}));
  EXPECT_EQ(Cores(a), (NodeInts{{10, 1}, {20, 1}, {30, 1}}));
}

TEST(UndirectedGraphTest, MovedFromGraphIsEmptyAndUsable) {
  for (const bool by_assignment : {false, true}) {
    UndirectedGraph d;
    d.AddEdge(5, 6);
    EXPECT_EQ(ViewIds(d), (std::vector<NodeId>{5, 6}));
    UndirectedGraph e;
    if (by_assignment) {
      e = std::move(d);
    } else {
      UndirectedGraph moved(std::move(d));
      e = moved;
    }
    EXPECT_EQ(e.NumNodes(), 2);
    EXPECT_EQ(d.NumNodes(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(d.NumEdges(), 0);
    EXPECT_FALSE(d.HasNode(5));
    EXPECT_TRUE(ViewIds(d).empty());
    EXPECT_TRUE(d.AddEdge(7, 8));
    EXPECT_TRUE(d.HasEdge(8, 7));
    EXPECT_EQ(d.NumNodes(), 2);
    EXPECT_EQ(ViewIds(d), (std::vector<NodeId>{7, 8}));
    EXPECT_EQ(ViewIds(e), (std::vector<NodeId>{5, 6}));
  }
}

}  // namespace
}  // namespace ringo
