#include "graph/directed_graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(DirectedGraphTest, AddNodesAndEdges) {
  DirectedGraph g;
  EXPECT_TRUE(g.AddNode(1));
  EXPECT_FALSE(g.AddNode(1));
  EXPECT_TRUE(g.AddEdge(1, 2));  // Creates node 2.
  EXPECT_FALSE(g.AddEdge(1, 2));
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
}

TEST(DirectedGraphTest, AutoNodeIdsAreFresh) {
  DirectedGraph g;
  g.AddNode(5);
  const NodeId a = g.AddNode();
  const NodeId b = g.AddNode();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 5);
  EXPECT_EQ(g.NumNodes(), 3);
}

// Ids at both ends of the int64 range: the id watermark saturates at
// INT64_MAX instead of overflowing, and AddNode() keeps returning ids the
// graph does not hold.
TEST(DirectedGraphTest, ExtremeIdsKeepAutoIdsUnused) {
  DirectedGraph g;
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

  DirectedGraph b;
  b.ApplyEdgeBatch({{INT64_MAX, INT64_MIN}, {INT64_MIN, INT64_MAX}}, {});
  const NodeId id = b.AddNode();
  EXPECT_NE(id, INT64_MIN);
  EXPECT_NE(id, INT64_MAX);
  EXPECT_EQ(b.NumNodes(), 3);
}

TEST(DirectedGraphTest, AdjacencyVectorsStaySorted) {
  DirectedGraph g;
  for (NodeId v : {5, 1, 9, 3, 7}) g.AddEdge(0, v);
  for (NodeId u : {8, 2, 6}) g.AddEdge(u, 0);
  const auto* nd = g.GetNode(0);
  ASSERT_NE(nd, nullptr);
  EXPECT_TRUE(std::is_sorted(nd->out.begin(), nd->out.end()));
  EXPECT_TRUE(std::is_sorted(nd->in.begin(), nd->in.end()));
  EXPECT_EQ(g.OutDegree(0), 5);
  EXPECT_EQ(g.InDegree(0), 3);
}

TEST(DirectedGraphTest, DelEdgeUpdatesBothEndpoints) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  EXPECT_TRUE(g.DelEdge(1, 2));
  EXPECT_FALSE(g.DelEdge(1, 2));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.InDegree(2), 0);
  EXPECT_EQ(g.OutDegree(1), 1);
}

TEST(DirectedGraphTest, DelNodeRemovesIncidentEdges) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  g.AddEdge(2, 2);  // Self-loop on the node being removed.
  EXPECT_TRUE(g.DelNode(2));
  EXPECT_FALSE(g.DelNode(2));
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(3, 1));
  EXPECT_EQ(g.OutDegree(1), 0);
  EXPECT_EQ(g.InDegree(3), 0);
}

TEST(DirectedGraphTest, SelfLoopCountsOnce) {
  DirectedGraph g;
  g.AddEdge(4, 4);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.OutDegree(4), 1);
  EXPECT_EQ(g.InDegree(4), 1);
  EXPECT_TRUE(g.DelEdge(4, 4));
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.InDegree(4), 0);
}

TEST(DirectedGraphTest, ForEachEdgeVisitsEachOnce) {
  DirectedGraph g = testing::RandomDirected(50, 300, 11);
  int64_t count = 0;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    EXPECT_TRUE(g.HasEdge(u, v));
    ++count;
  });
  EXPECT_EQ(count, g.NumEdges());
}

TEST(DirectedGraphTest, SortedNodeIds) {
  DirectedGraph g;
  for (NodeId v : {9, 2, 7, 4}) g.AddNode(v);
  EXPECT_EQ(g.SortedNodeIds(), (std::vector<NodeId>{2, 4, 7, 9}));
}

TEST(DirectedGraphTest, SameStructureDetectsDifferences) {
  DirectedGraph a = testing::RandomDirected(30, 100, 5);
  DirectedGraph b = testing::RandomDirected(30, 100, 5);
  EXPECT_TRUE(a.SameStructure(b));
  b.AddEdge(0, 29);
  b.DelEdge(0, 29);
  EXPECT_TRUE(a.SameStructure(b)) << "add+del must restore structure";
  b.AddNode(1000);
  EXPECT_FALSE(a.SameStructure(b));
}

TEST(DirectedGraphTest, RandomChurnKeepsInvariants) {
  DirectedGraph g;
  Rng rng(77);
  std::set<Edge> ref;
  for (int step = 0; step < 5000; ++step) {
    const NodeId u = rng.UniformInt(0, 20);
    const NodeId v = rng.UniformInt(0, 20);
    if (rng.Bernoulli(0.6)) {
      EXPECT_EQ(g.AddEdge(u, v), ref.insert({u, v}).second);
    } else {
      EXPECT_EQ(g.DelEdge(u, v), ref.erase({u, v}) > 0);
    }
  }
  EXPECT_EQ(g.NumEdges(), static_cast<int64_t>(ref.size()));
  EXPECT_EQ(testing::EdgeSet(g), ref);
  // In/out views must be mutually consistent.
  g.ForEachNode([&](NodeId u, const DirectedGraph::NodeData& nd) {
    for (NodeId v : nd.out) {
      const auto* vd = g.GetNode(v);
      ASSERT_NE(vd, nullptr);
      EXPECT_TRUE(std::binary_search(vd->in.begin(), vd->in.end(), u));
    }
  });
}

TEST(DirectedGraphTest, MemoryUsageGrowsWithEdges) {
  DirectedGraph small = testing::RandomDirected(100, 200, 1);
  DirectedGraph large = testing::RandomDirected(100, 2000, 1);
  EXPECT_GT(large.MemoryUsageBytes(), small.MemoryUsageBytes());
}

}  // namespace
}  // namespace ringo
