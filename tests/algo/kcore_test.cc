#include "algo/kcore.h"

#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

TEST(CoreNumbersTest, CompleteGraph) {
  const UndirectedGraph g = gen::Complete(5);
  for (const auto& [id, core] : CoreNumbers(g)) {
    EXPECT_EQ(core, 4);
  }
  EXPECT_EQ(Degeneracy(g), 4);
}

TEST(CoreNumbersTest, StarHasCoreOne) {
  const UndirectedGraph g = gen::Star(10);
  for (const auto& [id, core] : CoreNumbers(g)) {
    EXPECT_EQ(core, 1);
  }
}

TEST(CoreNumbersTest, TriangleWithTail) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(3, 4);  // Tail.
  FlatHashMap<NodeId, int64_t> cores;
  for (const auto& [id, c] : CoreNumbers(g)) cores.Insert(id, c);
  EXPECT_EQ(*cores.Find(1), 2);
  EXPECT_EQ(*cores.Find(2), 2);
  EXPECT_EQ(*cores.Find(3), 2);
  EXPECT_EQ(*cores.Find(4), 1);
}

TEST(CoreNumbersTest, IsolatedNodeIsZero) {
  UndirectedGraph g;
  g.AddNode(7);
  const NodeInts cores = CoreNumbers(g);
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0].second, 0);
}

TEST(KCoreSubgraphTest, MatchesNaivePeeling) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    UndirectedGraph g = testing::RandomUndirected(60, 200, seed);
    for (int64_t k : {1, 2, 3, 4}) {
      const UndirectedGraph fast = KCoreSubgraph(g, k);
      const UndirectedGraph ref = testing::NaiveKCore(g, k);
      EXPECT_TRUE(fast.SameStructure(ref))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(KCoreSubgraphTest, EveryNodeMeetsDegreeBound) {
  UndirectedGraph g = testing::RandomUndirected(100, 500, 77);
  const UndirectedGraph core3 = KCoreSubgraph(g, 3);
  core3.ForEachNode([&](NodeId id, const UndirectedGraph::NodeView& nd) {
    EXPECT_GE(static_cast<int64_t>(nd.nbrs.size()), 3) << id;
  });
}

TEST(KCoreSubgraphTest, LargeKGivesEmptyGraph) {
  UndirectedGraph g = gen::Ring(10);
  const UndirectedGraph core9 = KCoreSubgraph(g, 9);
  EXPECT_EQ(core9.NumNodes(), 0);
}

TEST(CoreNumbersTest, MonotoneUnderKCore) {
  // Every node of the k-core has core number >= k in the original graph.
  UndirectedGraph g = testing::RandomUndirected(80, 300, 5);
  FlatHashMap<NodeId, int64_t> cores;
  for (const auto& [id, c] : CoreNumbers(g)) cores.Insert(id, c);
  const UndirectedGraph core2 = KCoreSubgraph(g, 2);
  core2.ForEachNode([&](NodeId id, const UndirectedGraph::NodeView&) {
    EXPECT_GE(*cores.Find(id), 2);
  });
}

}  // namespace
}  // namespace ringo
