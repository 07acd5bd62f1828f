#include "algo/biconnectivity.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/connectivity.h"
#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

TEST(BiconnectivityTest, PathGraph) {
  // 0-1-2-3: internal nodes are cuts, every edge is a bridge.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const Biconnectivity b = FindCutPointsAndBridges(g);
  EXPECT_EQ(b.articulation_points, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(b.bridges, (std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(BiconnectivityTest, CycleHasNone) {
  const Biconnectivity b = FindCutPointsAndBridges(gen::Ring(8));
  EXPECT_TRUE(b.articulation_points.empty());
  EXPECT_TRUE(b.bridges.empty());
}

TEST(BiconnectivityTest, TwoTrianglesSharingAVertex) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(2, 4);
  const Biconnectivity b = FindCutPointsAndBridges(g);
  EXPECT_EQ(b.articulation_points, (std::vector<NodeId>{2}));
  EXPECT_TRUE(b.bridges.empty());
}

TEST(BiconnectivityTest, BarbellBridge) {
  // Two triangles joined by one edge: the edge is a bridge, its endpoints
  // are articulation points.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(2, 10);  // The bridge.
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);
  g.AddEdge(10, 12);
  const Biconnectivity b = FindCutPointsAndBridges(g);
  EXPECT_EQ(b.articulation_points, (std::vector<NodeId>{2, 10}));
  EXPECT_EQ(b.bridges, (std::vector<Edge>{{2, 10}}));
}

TEST(BiconnectivityTest, SelfLoopsAndIsolatedNodesIgnored) {
  UndirectedGraph g;
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddNode(9);
  const Biconnectivity b = FindCutPointsAndBridges(g);
  EXPECT_TRUE(b.articulation_points.empty());
  EXPECT_EQ(b.bridges, (std::vector<Edge>{{0, 1}}));
}

TEST(BiconnectivityTest, StarHubIsTheOnlyCut) {
  const Biconnectivity b = FindCutPointsAndBridges(gen::Star(6));
  EXPECT_EQ(b.articulation_points, (std::vector<NodeId>{0}));
  EXPECT_EQ(b.bridges.size(), 5u);
}

// Property: an articulation point's removal increases the component count,
// a non-articulation node's doesn't; same for bridges vs non-bridges.
class BiconnectivityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BiconnectivityProperty, MatchesRemovalSemantics) {
  UndirectedGraph g = testing::RandomUndirected(40, 60, GetParam());
  const Biconnectivity b = FindCutPointsAndBridges(g);
  const size_t base_components =
      ComponentSizes(ConnectedComponents(g)).size();

  // Exact removal semantics:
  //   isolated node           → component count drops by one;
  //   non-cut node (deg >= 1) → count unchanged;
  //   articulation point      → count strictly increases.
  FlatHashSet<NodeId> cut_set;
  for (NodeId v : b.articulation_points) cut_set.Insert(v);
  for (NodeId v : g.SortedNodeIds()) {
    UndirectedGraph copy = g;
    copy.DelNode(v);
    const size_t after = ComponentSizes(ConnectedComponents(copy)).size();
    // Degree ignoring a possible self-loop.
    int64_t deg = 0;
    const auto node = g.GetNode(v);
    for (NodeId u : node->nbrs) {
      if (u != v) ++deg;
    }
    if (cut_set.Contains(v)) {
      EXPECT_GT(after, base_components) << "articulation node " << v;
    } else if (deg == 0) {
      EXPECT_EQ(after, base_components - 1) << "isolated node " << v;
    } else {
      EXPECT_EQ(after, base_components) << "regular node " << v;
    }
  }

  std::set<Edge> bridge_set(b.bridges.begin(), b.bridges.end());
  g.ForEachEdge([&](NodeId u, NodeId v) {
    if (u == v) return;
    UndirectedGraph copy = g;
    copy.DelEdge(u, v);
    const size_t after = ComponentSizes(ConnectedComponents(copy)).size();
    const bool is_bridge = bridge_set.count({std::min(u, v), std::max(u, v)}) > 0;
    EXPECT_EQ(after > base_components, is_bridge) << u << "-" << v;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiconnectivityProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ringo
