#include "graph/csr_graph.h"

#include <gtest/gtest.h>

#include "graph/directed_graph.h"
#include "test_support.h"

namespace ringo {
namespace {

TEST(CsrGraphTest, FromEdgesBasics) {
  CsrGraph g = CsrGraph::FromEdges({{10, 20}, {10, 30}, {20, 30}});
  EXPECT_EQ(g.NumNodes(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_TRUE(g.HasEdge(10, 20));
  EXPECT_TRUE(g.HasEdge(20, 30));
  EXPECT_FALSE(g.HasEdge(30, 10));
  EXPECT_EQ(g.OutDegree(g.IndexOf(10)), 2);
  EXPECT_EQ(g.InDegree(g.IndexOf(30)), 2);
}

TEST(CsrGraphTest, SparseIdsRemapDensely) {
  CsrGraph g = CsrGraph::FromEdges({{1000000, 5}, {5, 1000000}});
  EXPECT_EQ(g.NumNodes(), 2);
  EXPECT_EQ(g.IndexOf(5), 0);        // Ascending id order.
  EXPECT_EQ(g.IndexOf(1000000), 1);
  EXPECT_EQ(g.IdOf(0), 5);
  EXPECT_EQ(g.IndexOf(77), -1);
}

TEST(CsrGraphTest, DuplicateEdgesCollapse) {
  CsrGraph g = CsrGraph::FromEdges({{1, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(CsrGraphTest, MatchesDynamicGraphStructure) {
  DirectedGraph dyn = testing::RandomDirected(60, 400, 13);
  CsrGraph csr = CsrGraph::FromGraph(dyn);
  EXPECT_EQ(csr.NumNodes(), dyn.NumNodes());
  EXPECT_EQ(csr.NumEdges(), dyn.NumEdges());
  dyn.ForEachEdge([&](NodeId u, NodeId v) {
    EXPECT_TRUE(csr.HasEdge(u, v)) << u << "->" << v;
  });
  // Degrees agree node by node.
  for (NodeId id : dyn.SortedNodeIds()) {
    const int64_t i = csr.IndexOf(id);
    ASSERT_GE(i, 0);
    EXPECT_EQ(csr.OutDegree(i), dyn.OutDegree(id));
    EXPECT_EQ(csr.InDegree(i), dyn.InDegree(id));
  }
}

TEST(CsrGraphTest, NeighborSpansAreSortedDenseIndices) {
  CsrGraph g = CsrGraph::FromEdges({{0, 3}, {0, 1}, {0, 2}, {3, 0}});
  const auto nbrs = g.OutNeighbors(g.IndexOf(0));
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(CsrGraphTest, DelEdgeCompacts) {
  CsrGraph g = CsrGraph::FromEdges({{1, 2}, {1, 3}, {2, 3}});
  EXPECT_TRUE(g.DelEdge(1, 2));
  EXPECT_FALSE(g.DelEdge(1, 2));
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_EQ(g.OutDegree(g.IndexOf(1)), 1);
  EXPECT_EQ(g.InDegree(g.IndexOf(2)), 0);
}

TEST(CsrGraphTest, DelManyEdgesStaysConsistent) {
  DirectedGraph dyn = testing::RandomDirected(30, 200, 17);
  CsrGraph csr = CsrGraph::FromGraph(dyn);
  // Delete every edge of node with the largest out-degree.
  NodeId hub = -1;
  int64_t best = -1;
  dyn.ForEachNode([&](NodeId id, const DirectedGraph::NodeView& nd) {
    if (static_cast<int64_t>(nd.out.size()) > best) {
      best = static_cast<int64_t>(nd.out.size());
      hub = id;
    }
  });
  const std::vector<NodeId> outs = testing::Ids(dyn.GetNode(hub)->out);
  for (NodeId v : outs) {
    EXPECT_TRUE(csr.DelEdge(hub, v));
    dyn.DelEdge(hub, v);
  }
  EXPECT_EQ(csr.NumEdges(), dyn.NumEdges());
  dyn.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(csr.HasEdge(u, v)); });
}

TEST(CsrGraphTest, MemoryUsagePositive) {
  CsrGraph g = CsrGraph::FromEdges({{0, 1}});
  EXPECT_GT(g.MemoryUsageBytes(), 0);
}

}  // namespace
}  // namespace ringo
