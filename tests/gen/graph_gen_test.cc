#include "gen/graph_gen.h"

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "test_support.h"

namespace ringo {
namespace gen {
namespace {

TEST(RMatTest, ProducesRequestedEdgeCount) {
  const auto edges = RMatEdges(10, 5000, 1).ValueOrDie();
  EXPECT_EQ(edges.size(), 5000u);
  for (const Edge& e : edges) {
    EXPECT_GE(e.first, 0);
    EXPECT_LT(e.first, 1024);
    EXPECT_LT(e.second, 1024);
    EXPECT_NE(e.first, e.second) << "self-loops off by default";
  }
}

TEST(RMatTest, DeterministicPerSeed) {
  EXPECT_EQ(RMatEdges(10, 2000, 7).ValueOrDie(),
            RMatEdges(10, 2000, 7).ValueOrDie());
  EXPECT_NE(RMatEdges(10, 2000, 7).ValueOrDie(),
            RMatEdges(10, 2000, 8).ValueOrDie());
}

TEST(RMatTest, SkewedDegreeDistribution) {
  // With Graph500 parameters, the max out-degree should far exceed the
  // average (scale-free-like skew).
  const auto edges = RMatEdges(12, 40000, 3).ValueOrDie();
  const DirectedGraph g = BuildDirected(edges);
  int64_t max_deg = 0;
  g.ForEachNode([&](NodeId, const DirectedGraph::NodeView& nd) {
    max_deg = std::max(max_deg, static_cast<int64_t>(nd.out.size()));
  });
  const double avg = static_cast<double>(g.NumEdges()) / g.NumNodes();
  EXPECT_GT(max_deg, 10 * avg);
}

TEST(RMatTest, ValidatesParameters) {
  EXPECT_TRUE(RMatEdges(0, 10, 1).status().IsInvalidArgument());
  RMatParams bad;
  bad.a = 0.9;
  bad.b = 0.9;
  EXPECT_TRUE(RMatEdges(5, 10, 1, bad).status().IsInvalidArgument());
}

TEST(ErdosRenyiTest, ExactEdgeCount) {
  auto g = ErdosRenyiDirected(100, 500, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 100);
  EXPECT_EQ(g->NumEdges(), 500);

  auto u = ErdosRenyiUndirected(100, 500, 1);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->NumEdges(), 500);
}

TEST(ErdosRenyiTest, InfeasibleRejected) {
  EXPECT_TRUE(ErdosRenyiDirected(3, 100, 1).status().IsInvalidArgument());
  EXPECT_TRUE(ErdosRenyiUndirected(1, 1, 1).status().IsInvalidArgument());
}

TEST(PreferentialAttachmentTest, SizesAndConnectivity) {
  auto g = PreferentialAttachment(300, 3, 5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 300);
  EXPECT_TRUE(IsConnected(*g));
  // Every non-seed node has degree >= 3.
  g->ForEachNode([&](NodeId, const UndirectedGraph::NodeView& nd) {
    EXPECT_GE(nd.nbrs.size(), 3u);
  });
}

TEST(PreferentialAttachmentTest, RichGetRicher) {
  auto g = PreferentialAttachment(2000, 2, 9);
  ASSERT_TRUE(g.ok());
  int64_t max_deg = 0;
  g->ForEachNode([&](NodeId, const UndirectedGraph::NodeView& nd) {
    max_deg = std::max(max_deg, static_cast<int64_t>(nd.nbrs.size()));
  });
  EXPECT_GT(max_deg, 30) << "expected hub formation";
}

TEST(SmallWorldTest, RegularRingWhenBetaZero) {
  auto g = SmallWorld(50, 3, 0.0, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 150);
  g->ForEachNode([&](NodeId, const UndirectedGraph::NodeView& nd) {
    EXPECT_EQ(nd.nbrs.size(), 6u);
  });
}

TEST(SmallWorldTest, RewiringKeepsEdgeCount) {
  auto g = SmallWorld(100, 2, 0.3, 4);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 200);
}

TEST(StructuredGraphsTest, KnownSizes) {
  EXPECT_EQ(Complete(6).NumEdges(), 15);
  EXPECT_EQ(CompleteDirected(5).NumEdges(), 20);
  EXPECT_EQ(Star(10).NumEdges(), 9);
  EXPECT_EQ(Ring(10).NumEdges(), 10);
  EXPECT_EQ(Ring(2).NumEdges(), 1);
  EXPECT_EQ(Grid(3, 4).NumNodes(), 12);
  EXPECT_EQ(Grid(3, 4).NumEdges(), 3 * 3 + 2 * 4);  // 17.
  // Full binary tree with 3 levels: 1 + 2 + 4 nodes.
  const UndirectedGraph t = FullTree(2, 3);
  EXPECT_EQ(t.NumNodes(), 7);
  EXPECT_EQ(t.NumEdges(), 6);
  EXPECT_TRUE(IsConnected(t));
}

TEST(BipartiteTest, NoIntraPartEdges) {
  auto g = Bipartite(20, 30, 0.2, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 50);
  g->ForEachEdge([](NodeId u, NodeId v) {
    const bool u_left = u < 20;
    const bool v_left = v < 20;
    EXPECT_NE(u_left, v_left);
  });
}

TEST(ConfigurationModelTest, ApproximatesDegreeSequence) {
  // Modest degrees on a large node set: collisions are rare, so most nodes
  // hit their target exactly.
  std::vector<int64_t> degrees(200, 4);
  auto g = ConfigurationModel(degrees, 5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 200);
  int64_t exact = 0;
  for (NodeId v = 0; v < 200; ++v) {
    EXPECT_LE(g->Degree(v), 4);
    exact += g->Degree(v) == 4 ? 1 : 0;
  }
  EXPECT_GT(exact, 150);
}

TEST(ConfigurationModelTest, Validation) {
  EXPECT_TRUE(ConfigurationModel({1, 2}, 1).status().IsInvalidArgument())
      << "odd degree sum";
  EXPECT_TRUE(ConfigurationModel({-1, 1}, 1).status().IsInvalidArgument());
  auto empty = ConfigurationModel({0, 0}, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumEdges(), 0);
  EXPECT_EQ(empty->NumNodes(), 2);
}

TEST(ConfigurationModelTest, DeterministicPerSeed) {
  std::vector<int64_t> degrees(50, 3);
  degrees[0] = 5;  // Make the sum even: 49*3 + 5 = 152.
  auto a = ConfigurationModel(degrees, 9);
  auto b = ConfigurationModel(degrees, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SameStructure(*b));
}

TEST(SimEdgesTest, PaperStandInsScale) {
  const auto lj = LiveJournalSimEdges(0.01);
  const auto tw = TwitterSimEdges(0.01);
  EXPECT_EQ(lj.size(), 10000u);
  EXPECT_EQ(tw.size(), 40000u);
  // TwitterSim is the larger graph, as in the paper.
  EXPECT_GT(tw.size(), lj.size());
}

}  // namespace
}  // namespace gen
}  // namespace ringo
