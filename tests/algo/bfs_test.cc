#include "algo/bfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "gen/graph_gen.h"
#include "storage/flat_hash_map.h"
#include "test_support.h"

namespace ringo {
namespace {

DirectedGraph Chain(int64_t n) {
  DirectedGraph g;
  for (NodeId i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(BfsTest, DistancesOnChain) {
  DirectedGraph g = Chain(5);
  const NodeInts d = BfsDistances(g, 0);
  ASSERT_EQ(d.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d[i].first, i);
    EXPECT_EQ(d[i].second, i);
  }
}

TEST(BfsTest, DirectionPolicies) {
  DirectedGraph g = Chain(4);
  EXPECT_EQ(BfsDistances(g, 3, BfsDir::kOut).size(), 1u);
  EXPECT_EQ(BfsDistances(g, 3, BfsDir::kIn).size(), 4u);
  EXPECT_EQ(BfsDistances(g, 1, BfsDir::kBoth).size(), 4u);
}

TEST(BfsTest, MissingSourceEmpty) {
  DirectedGraph g = Chain(3);
  EXPECT_TRUE(BfsDistances(g, 99).empty());
  EXPECT_EQ(BfsDepth(g, 99), -1);
}

TEST(BfsTest, UnreachableNodesOmitted) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  const NodeInts d = BfsDistances(g, 1);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, 1);
  EXPECT_EQ(d[1].first, 2);
}

TEST(BfsTest, UndirectedDistances) {
  UndirectedGraph g = gen::Ring(6);
  const NodeInts d = BfsDistances(g, 0);
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[3].second, 3);  // Opposite side of the ring.
  EXPECT_EQ(d[5].second, 1);
}

TEST(BfsTest, ShortestPathReconstruction) {
  DirectedGraph g = Chain(5);
  g.AddEdge(0, 3);  // Shortcut.
  const auto path = ShortestPath(g, 0, 4);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 3, 4}));
}

TEST(BfsTest, ShortestPathToSelf) {
  DirectedGraph g = Chain(3);
  EXPECT_EQ(ShortestPath(g, 1, 1), (std::vector<NodeId>{1}));
}

TEST(BfsTest, ShortestPathUnreachable) {
  DirectedGraph g = Chain(3);
  EXPECT_TRUE(ShortestPath(g, 2, 0).empty());
  EXPECT_TRUE(ShortestPath(g, 0, 99).empty());
}

TEST(BfsTest, DepthOfStarIsOne) {
  UndirectedGraph star = gen::Star(10);
  EXPECT_EQ(BfsDepth(star, 0), 1);
  EXPECT_EQ(BfsDepth(star, 5), 2);
}

TEST(BfsTest, ReachableSetMatchesDistances) {
  DirectedGraph g = testing::RandomDirected(60, 200, 5);
  const auto reach = BfsReachable(g, 0);
  const auto dist = BfsDistances(g, 0);
  ASSERT_EQ(reach.size(), dist.size());
  for (size_t i = 0; i < reach.size(); ++i) {
    EXPECT_EQ(reach[i], dist[i].first);
  }
}

TEST(DfsTest, PreorderOnTree) {
  // Root 0 with children 1, 2; 1 has children 3, 4.
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  EXPECT_EQ(DfsPreorder(g, 0), (std::vector<NodeId>{0, 1, 3, 4, 2}));
  EXPECT_EQ(DfsPostorder(g, 0), (std::vector<NodeId>{3, 4, 1, 2, 0}));
}

TEST(DfsTest, HandlesCyclesAndMissingSource) {
  DirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  const auto pre = DfsPreorder(g, 0);
  EXPECT_EQ(pre, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(DfsPreorder(g, 42).empty());
}

TEST(DfsTest, VisitsExactlyTheReachableSet) {
  DirectedGraph g = testing::RandomDirected(60, 180, 8);
  const auto reach = BfsReachable(g, 0);
  auto pre = DfsPreorder(g, 0);
  auto post = DfsPostorder(g, 0);
  std::sort(pre.begin(), pre.end());
  std::sort(post.begin(), post.end());
  EXPECT_EQ(pre, reach);
  EXPECT_EQ(post, reach);
}

// Property: undirected BFS distances match the all-pairs reference.
class BfsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsProperty, MatchesBruteForceAllPairs) {
  UndirectedGraph g = testing::RandomUndirected(40, 80, GetParam());
  const auto ref = testing::BruteAllPairs(g);
  const std::vector<NodeId> ids = g.SortedNodeIds();
  for (size_t s = 0; s < ids.size(); s += 7) {
    const NodeInts d = BfsDistances(g, ids[s]);
    FlatHashMap<NodeId, int64_t> dm;
    for (const auto& [id, dist] : d) dm.Insert(id, dist);
    for (size_t v = 0; v < ids.size(); ++v) {
      const int64_t* got = dm.Find(ids[v]);
      if (ref[s][v] >= INT64_MAX / 8) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, ref[s][v]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsProperty, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Parity suite: the direction-optimizing engine against the legacy
// sequential deque + hash-map BFS it replaced.

template <typename Expand>
NodeInts LegacyBfs(NodeId src, const Expand& expand) {
  FlatHashMap<NodeId, int64_t> dist;
  std::deque<NodeId> queue;
  dist.Insert(src, 0);
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int64_t du = *dist.Find(u);
    expand(u, [&](NodeId v) {
      if (dist.Insert(v, du + 1).second) queue.push_back(v);
    });
  }
  NodeInts out;
  out.reserve(dist.size());
  dist.ForEach([&](NodeId id, const int64_t& d) { out.emplace_back(id, d); });
  std::sort(out.begin(), out.end());
  return out;
}

NodeInts LegacyBfs(const DirectedGraph& g, NodeId src, BfsDir dir) {
  return LegacyBfs(src, [&](NodeId u, const auto& visit) {
    const auto nd = g.GetNode(u);
    if (dir == BfsDir::kOut || dir == BfsDir::kBoth) {
      for (NodeId v : nd->out) visit(v);
    }
    if (dir == BfsDir::kIn || dir == BfsDir::kBoth) {
      for (NodeId v : nd->in) visit(v);
    }
  });
}

NodeInts LegacyBfs(const UndirectedGraph& g, NodeId src) {
  return LegacyBfs(src, [&](NodeId u, const auto& visit) {
    const auto node = g.GetNode(u);
    for (NodeId v : node->nbrs) visit(v);
  });
}

void ExpectDirectedParity(const DirectedGraph& g, NodeId src) {
  for (BfsDir dir : {BfsDir::kOut, BfsDir::kIn, BfsDir::kBoth}) {
    EXPECT_EQ(BfsDistances(g, src, dir), LegacyBfs(g, src, dir))
        << "src=" << src << " dir=" << static_cast<int>(dir);
  }
}

TEST(BfsParityTest, RandomDirected) {
  const DirectedGraph g = testing::RandomDirected(300, 1500, 11, true);
  for (NodeId src : {0, 17, 299}) ExpectDirectedParity(g, src);
}

TEST(BfsParityTest, Rmat) {
  const DirectedGraph g =
      gen::BuildDirected(gen::RMatEdges(10, 6000, 5).ValueOrDie());
  const std::vector<NodeId> ids = g.SortedNodeIds();
  for (size_t s : {size_t{0}, ids.size() / 2, ids.size() - 1}) {
    ExpectDirectedParity(g, ids[s]);
  }
}

TEST(BfsParityTest, StarTriggersBottomUp) {
  // From a leaf, level 1 is the hub whose forward degree is nearly every
  // arc — kAuto flips to bottom-up while kTopDown must agree anyway.
  const UndirectedGraph g = gen::Star(4000);
  EXPECT_EQ(BfsDistances(g, 5), LegacyBfs(g, 5));
  EXPECT_EQ(BfsDistances(g, 0), LegacyBfs(g, 0));
}

TEST(BfsParityTest, ChainAndDisconnected) {
  DirectedGraph chain = Chain(500);
  ExpectDirectedParity(chain, 0);
  ExpectDirectedParity(chain, 499);

  DirectedGraph two;  // Two components + an isolated node.
  for (NodeId i = 0; i < 50; ++i) two.AddEdge(i, (i + 1) % 50);
  for (NodeId i = 100; i < 140; ++i) two.AddEdge(i, i + 1);
  two.AddNode(999);
  ExpectDirectedParity(two, 0);
  ExpectDirectedParity(two, 100);
  ExpectDirectedParity(two, 999);
}

TEST(BfsParityTest, DistAndParentMatchOracle) {
  // The engine, bottom-up steps included, against LegacyBfs' distances,
  // and every parent against the minimum-id predecessor one level up,
  // read off the graph's own adjacency.
  const DirectedGraph g =
      gen::BuildDirected(gen::RMatEdges(9, 4000, 13).ValueOrDie());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  for (BfsDir dir : {BfsDir::kOut, BfsDir::kBoth}) {
    const std::string what = "dir=" + std::to_string(static_cast<int>(dir));
    bfs::Options opts;
    opts.need_parents = true;
    const bfs::DenseBfs r = bfs::Run(*view, 0, dir, opts);
    EXPECT_GT(r.bottom_up_steps, 0) << what;

    std::vector<int64_t> dist(n, -1);
    for (const auto& [id, d] : LegacyBfs(g, view->IdOf(0), dir)) {
      dist[view->IndexOf(id)] = d;
    }
    std::vector<int64_t> parent(n, -1);
    for (int64_t v = 0; v < n; ++v) {
      if (dist[v] <= 0) continue;
      const auto nd = g.GetNode(view->IdOf(v));
      NodeId best = std::numeric_limits<NodeId>::max();
      auto consider = [&](NodeId u) {
        if (dist[view->IndexOf(u)] == dist[v] - 1) best = std::min(best, u);
      };
      for (NodeId u : nd->in) consider(u);
      if (dir == BfsDir::kBoth) {
        for (NodeId u : nd->out) consider(u);
      }
      parent[v] = view->IndexOf(best);
    }
    EXPECT_EQ(r.dist, dist) << what;
    EXPECT_EQ(r.parent, parent) << what;
    EXPECT_EQ(r.reached, n - std::count(dist.begin(), dist.end(), -1))
        << what;
    EXPECT_EQ(r.max_depth, *std::max_element(dist.begin(), dist.end()))
        << what;
  }
}

TEST(BfsParityTest, ParentsAreMinIdPredecessors) {
  // Diamond: 0→1→3 and 0→2→3. Both paths are shortest; the engine must
  // pick parent 1 (the minimum id), so ShortestPath is deterministic.
  DirectedGraph g;
  g.AddEdge(0, 2);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_EQ(ShortestPath(g, 0, 3), (std::vector<NodeId>{0, 1, 3}));
}

TEST(BfsParityTest, ShortestPathIsValidAndOptimal) {
  const DirectedGraph g = testing::RandomDirected(200, 1000, 21);
  const NodeInts dist = BfsDistances(g, 0);
  FlatHashMap<NodeId, int64_t> dm;
  for (const auto& [id, d] : dist) dm.Insert(id, d);
  for (NodeId dst : {3, 77, 150, 199}) {
    const auto path = ShortestPath(g, 0, dst);
    const int64_t* d = dm.Find(dst);
    if (d == nullptr) {
      EXPECT_TRUE(path.empty());
      continue;
    }
    ASSERT_EQ(static_cast<int64_t>(path.size()), *d + 1) << "dst=" << dst;
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), dst);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(path[i], path[i + 1]));
    }
  }
}

}  // namespace
}  // namespace ringo
