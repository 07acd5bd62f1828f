#include "graph/undirected_graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

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

}  // namespace
}  // namespace ringo
