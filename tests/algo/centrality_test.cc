#include "algo/centrality.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

template <typename T>
FlatHashMap<NodeId, T> AsMap(const std::vector<std::pair<NodeId, T>>& v) {
  FlatHashMap<NodeId, T> m;
  for (const auto& [id, x] : v) m.Insert(id, x);
  return m;
}

TEST(DegreeCentralityTest, StarHub) {
  const UndirectedGraph g = gen::Star(5);  // Hub 0 + 4 leaves.
  const auto c = AsMap(DegreeCentrality(g));
  EXPECT_DOUBLE_EQ(*c.Find(0), 1.0);           // deg 4 / (n-1)=4.
  EXPECT_DOUBLE_EQ(*c.Find(1), 0.25);
}

TEST(DegreeCentralityTest, DirectedInOut) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(3, 2);
  const auto in = AsMap(InDegreeCentrality(g));
  const auto out = AsMap(OutDegreeCentrality(g));
  EXPECT_DOUBLE_EQ(*in.Find(2), 1.0);
  EXPECT_DOUBLE_EQ(*in.Find(1), 0.0);
  EXPECT_DOUBLE_EQ(*out.Find(1), 0.5);
}

TEST(ClosenessTest, PathCenterIsMostCentral) {
  // Path 0-1-2-3-4: node 2 minimizes total distance.
  UndirectedGraph g;
  for (NodeId i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  const auto c = AsMap(ClosenessCentrality(g));
  EXPECT_GT(*c.Find(2), *c.Find(1));
  EXPECT_GT(*c.Find(1), *c.Find(0));
  // Known value: node 2 has distance sum 1+1+2+2=6 → (4/6)*(4/4).
  EXPECT_NEAR(*c.Find(2), 4.0 / 6.0, 1e-12);
}

TEST(ClosenessTest, DisconnectedGetsWassermanFaustScaling) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddNode(2);  // Isolated.
  const auto c = AsMap(ClosenessCentrality(g));
  EXPECT_DOUBLE_EQ(*c.Find(2), 0.0);
  // Nodes 0,1: r=2, sum=1 → (1/1) * (1/2) = 0.5.
  EXPECT_NEAR(*c.Find(0), 0.5, 1e-12);
}

TEST(HarmonicTest, StarValues) {
  const UndirectedGraph g = gen::Star(5);
  const auto c = AsMap(HarmonicCentrality(g));
  EXPECT_NEAR(*c.Find(0), 1.0, 1e-12);  // 4 * 1 / 4.
  // Leaf: 1 + 3 * 0.5 = 2.5 over n-1=4.
  EXPECT_NEAR(*c.Find(1), 2.5 / 4.0, 1e-12);
}

TEST(BetweennessTest, PathMiddleDominates) {
  UndirectedGraph g;
  for (NodeId i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  const auto b = AsMap(BetweennessCentrality(g));
  // Known: endpoints 0; node 1 and 3: 3 pairs... path of 5 nodes:
  // b(1) = pairs (0,2),(0,3),(0,4) = 3; b(2) = (0,3),(0,4),(1,3),(1,4) = 4.
  EXPECT_DOUBLE_EQ(*b.Find(0), 0.0);
  EXPECT_DOUBLE_EQ(*b.Find(1), 3.0);
  EXPECT_DOUBLE_EQ(*b.Find(2), 4.0);
  EXPECT_DOUBLE_EQ(*b.Find(3), 3.0);
  EXPECT_DOUBLE_EQ(*b.Find(4), 0.0);
}

TEST(BetweennessTest, StarHubCoversAllPairs) {
  const UndirectedGraph g = gen::Star(6);  // Hub 0, leaves 1..5.
  const auto b = AsMap(BetweennessCentrality(g));
  EXPECT_DOUBLE_EQ(*b.Find(0), 10.0);  // C(5,2) pairs.
  EXPECT_DOUBLE_EQ(*b.Find(3), 0.0);
}

TEST(BetweennessTest, EvenSplitOnDiamond) {
  // 0-1-3 and 0-2-3: two equal shortest paths; 1 and 2 each get 0.5.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  const auto b = AsMap(BetweennessCentrality(g));
  EXPECT_DOUBLE_EQ(*b.Find(1), 0.5);
  EXPECT_DOUBLE_EQ(*b.Find(2), 0.5);
}

TEST(BetweennessTest, FullSamplingMatchesExact) {
  UndirectedGraph g = testing::RandomUndirected(40, 120, 17);
  const auto exact = BetweennessCentrality(g);
  const auto approx = ApproxBetweennessCentrality(g, g.NumNodes(), 1);
  ASSERT_EQ(exact.size(), approx.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i].first, approx[i].first);
    EXPECT_NEAR(exact[i].second, approx[i].second, 1e-9)
        << "sampling every node must equal the exact algorithm";
  }
}

TEST(DirectedClosenessTest, FollowsOutEdgesOnly) {
  // Chain 0→1→2: node 0 reaches both; node 2 reaches nothing.
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto c = AsMap(ClosenessCentralityDirected(g));
  EXPECT_GT(*c.Find(0), 0.0);
  EXPECT_DOUBLE_EQ(*c.Find(2), 0.0);
  // Node 0: r=3, total=1+2=3 → (2/3)*(2/2) = 2/3.
  EXPECT_NEAR(*c.Find(0), 2.0 / 3.0, 1e-12);
}

TEST(DirectedBetweennessTest, MiddleOfDirectedPath) {
  // 0→1→2: node 1 lies on the single (0,2) path: score 1 (ordered pairs).
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto b = AsMap(BetweennessCentralityDirected(g));
  EXPECT_DOUBLE_EQ(*b.Find(1), 1.0);
  EXPECT_DOUBLE_EQ(*b.Find(0), 0.0);
  EXPECT_DOUBLE_EQ(*b.Find(2), 0.0);
}

TEST(DirectedBetweennessTest, SymmetricGraphDoublesUndirected) {
  // On a symmetric digraph, ordered-pair counting yields exactly 2x the
  // undirected (unordered-pair) score.
  UndirectedGraph ug = testing::RandomUndirected(30, 90, 11);
  DirectedGraph dg;
  ug.ForEachNode([&](NodeId id, const UndirectedGraph::NodeView&) {
    dg.AddNode(id);
  });
  ug.ForEachEdge([&](NodeId u, NodeId v) {
    if (u == v) return;
    dg.AddEdge(u, v);
    dg.AddEdge(v, u);
  });
  const auto undirected = BetweennessCentrality(ug);
  const auto directed = BetweennessCentralityDirected(dg);
  ASSERT_EQ(undirected.size(), directed.size());
  for (size_t i = 0; i < undirected.size(); ++i) {
    EXPECT_EQ(undirected[i].first, directed[i].first);
    EXPECT_NEAR(2.0 * undirected[i].second, directed[i].second, 1e-9);
  }
}

TEST(EigenvectorTest, CompleteGraphUniform) {
  const UndirectedGraph g = gen::Complete(4);
  auto c = EigenvectorCentrality(g);
  ASSERT_TRUE(c.ok());
  for (const auto& [id, v] : *c) {
    EXPECT_NEAR(v, 0.5, 1e-6);  // 1/sqrt(4).
  }
}

TEST(EigenvectorTest, HubOutranksLeaves) {
  const UndirectedGraph g = gen::Star(8);
  auto c = EigenvectorCentrality(g);
  ASSERT_TRUE(c.ok());
  const auto m = AsMap(*c);
  EXPECT_GT(*m.Find(0), *m.Find(1));
}

TEST(EccentricityTest, RingIsUniform) {
  const UndirectedGraph g = gen::Ring(8);
  for (const auto& [id, e] : Eccentricities(g)) {
    EXPECT_EQ(e, 4);
  }
}

TEST(ApproxClosenessTest, FullSampleEqualsExact) {
  UndirectedGraph g = testing::RandomUndirected(60, 250, 7);
  const auto exact = AsMap(ClosenessCentrality(g));
  const auto approx = ApproxClosenessCentrality(g, g.NumNodes(), 1);
  for (const auto& [id, v] : approx) {
    EXPECT_NEAR(v, *exact.Find(id), 1e-9) << "node " << id;
  }
}

// Regression: `samples` is clamped to [1, n]. Zero used to scale
// betweenness by n/0 (NaN for every node), and a negative count reached
// std::vector::resize and aborted with std::length_error.
TEST(ApproxCentralityTest, NonPositiveSamplesUseOnePivot) {
  const UndirectedGraph g = testing::RandomUndirected(40, 120, 17);
  const NodeValues bc_one = ApproxBetweennessCentrality(g, 1, 3);
  const NodeValues cc_one = ApproxClosenessCentrality(g, 1, 3);
  for (const int64_t samples : {int64_t{0}, int64_t{-5}}) {
    const NodeValues bc = ApproxBetweennessCentrality(g, samples, 3);
    EXPECT_EQ(bc, bc_one) << "samples=" << samples;
    for (const auto& [id, v] : bc) EXPECT_TRUE(std::isfinite(v)) << id;
    EXPECT_EQ(ApproxClosenessCentrality(g, samples, 3), cc_one)
        << "samples=" << samples;
  }
}

TEST(ApproxClosenessTest, SampledRanksTopNodeSensibly) {
  // Star: hub must dominate even with few pivots.
  const UndirectedGraph g = gen::Star(100);
  const auto approx = ApproxClosenessCentrality(g, 10, 2);
  NodeId best = -1;
  double bv = -1;
  for (const auto& [id, v] : approx) {
    if (v > bv) {
      bv = v;
      best = id;
    }
  }
  EXPECT_EQ(best, 0);
}

}  // namespace
}  // namespace ringo
