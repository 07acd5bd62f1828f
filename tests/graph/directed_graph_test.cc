#include "graph/directed_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "algo/pagerank.h"
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

// Node ids of a snapshot, ascending.
std::vector<NodeId> ViewIds(const DirectedGraph& g) {
  const auto view = AlgoView::Of(g);
  std::vector<NodeId> ids;
  for (int64_t i = 0; i < view->NumNodes(); ++i) ids.push_back(view->IdOf(i));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Node ids PageRank scores, ascending.
std::vector<NodeId> RankedIds(const DirectedGraph& g) {
  auto pr = ParallelPageRank(g, PageRankConfig{});
  EXPECT_TRUE(pr.ok());
  std::vector<NodeId> ids;
  for (const auto& [id, score] : *pr) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Stamps are per graph and start at 1, so two graphs with as many
// mutations share stamp values: an assignment that kept the target's
// cached snapshot would serve the old graph.
TEST(DirectedGraphTest, CopyAssignmentDropsCachedSnapshot) {
  DirectedGraph a;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{1, 2, 3}));
  DirectedGraph b;
  b.AddEdge(10, 20);
  b.AddEdge(20, 30);
  a = b;
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{10, 20, 30}));
  EXPECT_EQ(RankedIds(a), (std::vector<NodeId>{10, 20, 30}));
}

TEST(DirectedGraphTest, MoveAssignmentDropsCachedSnapshot) {
  DirectedGraph a;
  a.AddEdge(1, 2);
  a.AddEdge(2, 3);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{1, 2, 3}));
  DirectedGraph c;
  c.AddEdge(10, 20);
  c.AddEdge(20, 30);
  EXPECT_EQ(ViewIds(c), (std::vector<NodeId>{10, 20, 30}));
  a = std::move(c);
  EXPECT_EQ(ViewIds(a), (std::vector<NodeId>{10, 20, 30}));
  EXPECT_EQ(RankedIds(a), (std::vector<NodeId>{10, 20, 30}));
}

// A moved-from graph is an empty, usable graph with no cached snapshot.
TEST(DirectedGraphTest, MovedFromGraphIsEmptyAndUsable) {
  for (const bool by_assignment : {false, true}) {
    DirectedGraph d;
    d.AddEdge(5, 6);
    EXPECT_EQ(ViewIds(d), (std::vector<NodeId>{5, 6}));
    DirectedGraph e;
    if (by_assignment) {
      e = std::move(d);
    } else {
      DirectedGraph moved(std::move(d));
      e = moved;
    }
    EXPECT_EQ(e.NumNodes(), 2);
    EXPECT_EQ(d.NumNodes(), 0);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(d.NumEdges(), 0);
    EXPECT_FALSE(d.HasNode(5));
    EXPECT_TRUE(ViewIds(d).empty());
    EXPECT_TRUE(d.AddEdge(7, 8));
    EXPECT_TRUE(d.HasEdge(7, 8));
    EXPECT_EQ(d.NumNodes(), 2);
    EXPECT_EQ(ViewIds(d), (std::vector<NodeId>{7, 8}));
    EXPECT_EQ(ViewIds(e), (std::vector<NodeId>{5, 6}));
  }
}

}  // namespace
}  // namespace ringo
