#include "algo/mst.h"

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "gen/graph_gen.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(MstTest, SimpleTriangle) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EdgeWeights w;
  w.SetSymmetric(1, 2, 1.0);
  w.SetSymmetric(2, 3, 2.0);
  w.SetSymmetric(1, 3, 10.0);
  const MstResult mst = MinimumSpanningForest(g, w);
  EXPECT_EQ(mst.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(mst.total_weight, 3.0);
}

TEST(MstTest, ForestPerComponent) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);
  EdgeWeights w;
  const MstResult mst = MinimumSpanningForest(g, w);
  EXPECT_EQ(mst.edges.size(), 3u);  // n - #components = 5 - 2.
  EXPECT_DOUBLE_EQ(mst.total_weight, 3.0);  // Default weight 1.
}

TEST(MstTest, SelfLoopsSkipped) {
  UndirectedGraph g;
  g.AddEdge(1, 1);
  g.AddEdge(1, 2);
  const MstResult mst = MinimumSpanningForest(g, EdgeWeights());
  EXPECT_EQ(mst.edges.size(), 1u);
}

TEST(MstTest, SpanningTreeProperties) {
  UndirectedGraph g = testing::RandomUndirected(80, 400, 3);
  Rng rng(3);
  EdgeWeights w;
  g.ForEachEdge([&](NodeId u, NodeId v) {
    w.SetSymmetric(u, v, rng.UniformReal(0.5, 4.0));
  });
  const MstResult mst = MinimumSpanningForest(g, w);
  // |edges| = n - #components.
  const auto comps = ComponentSizes(ConnectedComponents(g));
  EXPECT_EQ(static_cast<int64_t>(mst.edges.size()),
            g.NumNodes() - static_cast<int64_t>(comps.size()));
  // The forest connects exactly the same components.
  UndirectedGraph forest;
  g.ForEachNode([&](NodeId id, const UndirectedGraph::NodeView&) {
    forest.AddNode(id);
  });
  for (const Edge& e : mst.edges) forest.AddEdge(e.first, e.second);
  EXPECT_EQ(ComponentSizes(ConnectedComponents(forest)).size(), comps.size());
}

// Property: Kruskal total matches brute force over all spanning trees on
// tiny graphs (enumerated via Prim-like reference: compare against a second
// algorithm, O(n^2) Prim).
TEST(MstTest, MatchesPrimReference) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    UndirectedGraph g = testing::RandomUndirected(30, 120, seed);
    if (!IsConnected(g)) {
      // Connect it to keep the Prim reference simple.
      const std::vector<NodeId> ids = g.SortedNodeIds();
      for (size_t i = 1; i < ids.size(); ++i) g.AddEdge(ids[0], ids[i]);
    }
    Rng rng(seed);
    EdgeWeights w;
    g.ForEachEdge([&](NodeId u, NodeId v) {
      w.SetSymmetric(u, v, rng.UniformReal(0.1, 9.0));
    });
    // Prim from the smallest node.
    const std::vector<NodeId> ids = g.SortedNodeIds();
    FlatHashSet<NodeId> in_tree;
    in_tree.Insert(ids[0]);
    double prim_total = 0;
    while (in_tree.size() < static_cast<int64_t>(ids.size())) {
      double best = 1e18;
      NodeId best_v = -1;
      in_tree.ForEach([&](NodeId u) {
        const auto node = g.GetNode(u);
        for (NodeId v : node->nbrs) {
          if (v != u && !in_tree.Contains(v)) {
            const double wt = w.Get(u, v);
            if (wt < best) {
              best = wt;
              best_v = v;
            }
          }
        }
      });
      ASSERT_GE(best_v, 0);
      in_tree.Insert(best_v);
      prim_total += best;
    }
    const MstResult kruskal = MinimumSpanningForest(g, w);
    EXPECT_NEAR(kruskal.total_weight, prim_total, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ringo
