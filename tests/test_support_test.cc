// Regression tests for the test scaffolding itself: the random graph
// builders promise *exactly* m edges (duplicates and disallowed self-loops
// are retried), which the algorithm property tests rely on when they
// reason about densities. The reference oracles get checked against each
// other.
#include <gtest/gtest.h>

#include "test_support.h"

namespace ringo {
namespace {

TEST(RandomDirectedTest, ProducesExactlyRequestedEdgeCount) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    const DirectedGraph g = testing::RandomDirected(100, 500, seed);
    EXPECT_EQ(g.NumNodes(), 100);
    EXPECT_EQ(g.NumEdges(), 500) << "seed=" << seed;
  }
  // Dense request: more retries, still exact.
  EXPECT_EQ(testing::RandomDirected(20, 300, 3).NumEdges(), 300);
}

TEST(RandomDirectedTest, SelfLoopPolicyRespected) {
  const DirectedGraph no_loops = testing::RandomDirected(50, 600, 11, false);
  EXPECT_EQ(no_loops.NumEdges(), 600);
  no_loops.ForEachEdge([](NodeId u, NodeId v) { EXPECT_NE(u, v); });

  const DirectedGraph with_loops = testing::RandomDirected(30, 500, 13, true);
  EXPECT_EQ(with_loops.NumEdges(), 500);
}

TEST(RandomDirectedTest, OverfullRequestClampsToDensestGraph) {
  // 6 nodes -> at most 30 directed non-loop edges.
  EXPECT_EQ(testing::RandomDirected(6, 1000, 5).NumEdges(), 30);
  // With self-loops allowed: 36.
  EXPECT_EQ(testing::RandomDirected(6, 1000, 5, true).NumEdges(), 36);
}

TEST(RandomDirectedTest, DeterministicForSeed) {
  const DirectedGraph a = testing::RandomDirected(80, 400, 99);
  const DirectedGraph b = testing::RandomDirected(80, 400, 99);
  EXPECT_TRUE(a.SameStructure(b));
  const DirectedGraph c = testing::RandomDirected(80, 400, 100);
  EXPECT_FALSE(a.SameStructure(c));
}

TEST(RandomUndirectedTest, ProducesExactlyRequestedEdgeCount) {
  for (const uint64_t seed : {2u, 9u, 77u}) {
    const UndirectedGraph g = testing::RandomUndirected(100, 400, seed);
    EXPECT_EQ(g.NumNodes(), 100);
    EXPECT_EQ(g.NumEdges(), 400) << "seed=" << seed;
  }
  // Clamp: 10 nodes -> at most 45 undirected edges.
  EXPECT_EQ(testing::RandomUndirected(10, 1000, 4).NumEdges(), 45);
}

TEST(RandomUndirectedTest, NoSelfLoopsEver) {
  const UndirectedGraph g = testing::RandomUndirected(40, 300, 21);
  EXPECT_EQ(g.NumEdges(), 300);
  g.ForEachEdge([](NodeId u, NodeId v) { EXPECT_NE(u, v); });
}

// The large-graph triangle oracle agrees with the O(n^3) enumeration,
// self-loops and isolated nodes included.
TEST(EdgeIteratorTrianglesTest, MatchesBruteForce) {
  for (const uint64_t seed : {3u, 8u, 31u}) {
    const UndirectedGraph g = testing::RandomUndirected(60, 400, seed);
    EXPECT_EQ(testing::EdgeIteratorTriangles(g), testing::BruteTriangles(g))
        << "seed=" << seed;
  }
  UndirectedGraph g = testing::RandomUndirected(30, 120, 5);
  for (NodeId u : {0, 4, 9}) g.AddEdge(u, u);
  for (NodeId u = 100; u < 105; ++u) g.AddNode(u);
  EXPECT_EQ(testing::EdgeIteratorTriangles(g), testing::BruteTriangles(g));
  EXPECT_EQ(testing::EdgeIteratorTriangles(UndirectedGraph()), 0);
}

}  // namespace
}  // namespace ringo
