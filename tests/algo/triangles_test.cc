#include "algo/triangles.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gen/graph_gen.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace {

TEST(TriangleCountTest, SingleTriangle) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_EQ(TriangleCount(g), 1);
  EXPECT_EQ(ParallelTriangleCount(g), 1);
}

TEST(TriangleCountTest, CompleteGraphFormula) {
  // K_n has C(n,3) triangles.
  for (int64_t n : {4, 6, 8}) {
    const UndirectedGraph g = gen::Complete(n);
    EXPECT_EQ(TriangleCount(g), n * (n - 1) * (n - 2) / 6) << "K_" << n;
  }
}

TEST(TriangleCountTest, TriangleFreeGraphs) {
  EXPECT_EQ(TriangleCount(gen::Star(20)), 0);
  EXPECT_EQ(TriangleCount(gen::Ring(20)), 0);
  EXPECT_EQ(TriangleCount(gen::Grid(5, 5)), 0);
}

TEST(TriangleCountTest, SelfLoopsIgnored) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(1, 1);
  g.AddEdge(2, 2);
  EXPECT_EQ(TriangleCount(g), 1);
}

// Property: fast counters match brute force across random graphs.
class TriangleProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {};

TEST_P(TriangleProperty, MatchesBruteForce) {
  const auto [m, seed] = GetParam();
  UndirectedGraph g = testing::RandomUndirected(40, m, seed);
  const int64_t expect = testing::BruteTriangles(g);
  EXPECT_EQ(TriangleCount(g), expect);
  EXPECT_EQ(ParallelTriangleCount(g), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Density, TriangleProperty,
    ::testing::Combine(::testing::Values<int64_t>(30, 100, 300),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(NodeTrianglesTest, SumIsThreeTimesTotal) {
  UndirectedGraph g = testing::RandomUndirected(60, 400, 9);
  const int64_t total = TriangleCount(g);
  int64_t node_sum = 0;
  for (const auto& [id, t] : NodeTriangles(g)) node_sum += t;
  EXPECT_EQ(node_sum, 3 * total);
}

TEST(NodeTrianglesTest, KnownValues) {
  // Two triangles sharing the edge {1,2}.
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 4);
  FlatHashMap<NodeId, int64_t> tri;
  for (const auto& [id, t] : NodeTriangles(g)) tri.Insert(id, t);
  EXPECT_EQ(*tri.Find(1), 2);
  EXPECT_EQ(*tri.Find(2), 2);
  EXPECT_EQ(*tri.Find(3), 1);
  EXPECT_EQ(*tri.Find(4), 1);
}

TEST(ClusteringTest, CompleteIsOne) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(gen::Complete(6)), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(gen::Complete(6)), 1.0);
}

TEST(ClusteringTest, TriangleFreeIsZero) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(gen::Star(10)), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(gen::Ring(10)), 0.0);
}

TEST(ClusteringTest, LocalValuesKnownGraph) {
  // Triangle {1,2,3} plus pendant 4 on node 1.
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  FlatHashMap<NodeId, double> cc;
  for (const auto& [id, c] : LocalClusteringCoefficients(g)) cc.Insert(id, c);
  EXPECT_NEAR(*cc.Find(1), 1.0 / 3.0, 1e-12);  // 1 triangle / C(3,2).
  EXPECT_DOUBLE_EQ(*cc.Find(2), 1.0);
  EXPECT_DOUBLE_EQ(*cc.Find(4), 0.0);  // Degree 1.
}

TEST(ClusteringTest, GlobalOnPathKnown) {
  // Path 0-1-2: one wedge, no triangle.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
  g.AddEdge(0, 2);  // Close it: 3 wedges, 1 triangle → 3*1/3 = 1.
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(TriangleCountTest, RMatGraphSequentialEqualsParallel) {
  const auto edges = gen::RMatEdges(9, 6000, 4).ValueOrDie();
  const UndirectedGraph g = gen::BuildUndirected(edges);
  EXPECT_EQ(TriangleCount(g), ParallelTriangleCount(g));
}

// The library's own trace splits a count into the orientation build and
// the intersection, both children of the entry point's span.
TEST(TriangleCountTest, TraceSplitsOrientAndIntersect) {
  metrics::SetEnabled(true);
  trace::Clear();
  const UndirectedGraph g = gen::Complete(5);
  EXPECT_EQ(ParallelTriangleCount(g), 10);
  EXPECT_EQ(TriangleCount(g), 10);
  std::map<std::string, int> depth;
  for (const trace::SpanEvent& e : trace::Spans()) depth[e.name] = e.depth;
  for (const std::string root :
       {"Algo/ParallelTriangleCount", "Algo/TriangleCount"}) {
    ASSERT_EQ(depth.count(root), 1u) << root;
    for (const char* phase : {"/orient", "/intersect"}) {
      ASSERT_EQ(depth.count(root + phase), 1u) << root << phase;
      EXPECT_EQ(depth[root + phase], depth[root] + 1) << root << phase;
    }
  }
}

}  // namespace
}  // namespace ringo
