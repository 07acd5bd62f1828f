#include "algo/community.h"

#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

// Two k-cliques connected by one bridge edge.
UndirectedGraph TwoCliques(int64_t k) {
  UndirectedGraph g;
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) g.AddEdge(u, v);
  }
  for (NodeId u = k; u < 2 * k; ++u) {
    for (NodeId v = u + 1; v < 2 * k; ++v) g.AddEdge(u, v);
  }
  g.AddEdge(0, k);  // Bridge.
  return g;
}

TEST(LabelPropagationTest, SeparatesTwoCliques) {
  const UndirectedGraph g = TwoCliques(8);
  const NodeInts labels = LabelPropagation(g);
  FlatHashMap<NodeId, int64_t> m;
  for (const auto& [id, l] : labels) m.Insert(id, l);
  // All members of each clique share a label; the two cliques differ.
  for (NodeId v = 1; v < 8; ++v) EXPECT_EQ(*m.Find(v), *m.Find(1));
  for (NodeId v = 9; v < 16; ++v) EXPECT_EQ(*m.Find(v), *m.Find(9));
  EXPECT_NE(*m.Find(1), *m.Find(9));
}

TEST(LabelPropagationTest, LabelsAreDense) {
  UndirectedGraph g = testing::RandomUndirected(50, 100, 3);
  const NodeInts labels = LabelPropagation(g);
  int64_t max_label = 0;
  FlatHashSet<int64_t> distinct;
  for (const auto& [id, l] : labels) {
    EXPECT_GE(l, 0);
    max_label = std::max(max_label, l);
    distinct.Insert(l);
  }
  EXPECT_EQ(distinct.size(), max_label + 1) << "labels must be dense";
}

TEST(LabelPropagationTest, DeterministicPerSeed) {
  UndirectedGraph g = testing::RandomUndirected(60, 200, 5);
  EXPECT_EQ(LabelPropagation(g, 100, 9), LabelPropagation(g, 100, 9));
}

TEST(ModularityTest, TwoCliquePartitionScoresHigh) {
  const UndirectedGraph g = TwoCliques(8);
  NodeInts good, bad;
  for (NodeId v = 0; v < 16; ++v) {
    good.emplace_back(v, v < 8 ? 0 : 1);
    bad.emplace_back(v, v % 2);  // Random-ish split.
  }
  const double q_good = Modularity(g, good);
  const double q_bad = Modularity(g, bad);
  EXPECT_GT(q_good, 0.4);
  EXPECT_GT(q_good, q_bad);
}

TEST(ModularityTest, SingleCommunityIsZero) {
  const UndirectedGraph g = gen::Complete(6);
  NodeInts one;
  for (NodeId v = 0; v < 6; ++v) one.emplace_back(v, 0);
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(ModularityTest, LabelPropagationBeatsSingletons) {
  const UndirectedGraph g = TwoCliques(10);
  const NodeInts lp = LabelPropagation(g);
  NodeInts singletons;
  for (NodeId v = 0; v < 20; ++v) singletons.emplace_back(v, v);
  EXPECT_GT(Modularity(g, lp), Modularity(g, singletons));
}

// Regression: labels are renumbered densely before they size any array, so
// a negative label no longer writes before the per-community sums and a
// label of 2^40 no longer allocates 2^40 of them; Q depends only on which
// nodes share a label.
TEST(ModularityTest, LabelValuesDoNotMatter) {
  const UndirectedGraph g = gen::Complete(6);
  NodeInts plain, extreme;
  for (NodeId v = 0; v < 6; ++v) {
    plain.emplace_back(v, v < 3 ? 0 : 1);
    extreme.emplace_back(v, v < 3 ? -3 : int64_t{1} << 40);
  }
  EXPECT_EQ(Modularity(g, extreme), Modularity(g, plain));
}

TEST(ModularityTest, EmptyGraphIsZero) {
  UndirectedGraph g;
  EXPECT_DOUBLE_EQ(Modularity(g, {}), 0.0);
}

}  // namespace
}  // namespace ringo
