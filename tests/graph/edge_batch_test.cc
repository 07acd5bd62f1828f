// ApplyEdgeBatch semantics (DESIGN.md §11) plus the stamp-discipline
// contract it relies on: one stamp bump per effective mutation, zero for
// no-ops, and a single bump for a whole batch. The batch path must be an
// exact stand-in for the equivalent AddEdge/DelEdge sequence, so most
// tests compare against a reference graph mutated edge-by-edge.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/delta_journal.h"
#include "graph/directed_graph.h"
#include "graph/edge_batch.h"
#include "graph/undirected_graph.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

// ------------------------------------------------------- stamp semantics

TEST(StampSemanticsTest, DirectedNoOpsNeverBump) {
  DirectedGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2));
  const uint64_t s = g.MutationStamp();
  EXPECT_FALSE(g.AddNode(1));      // Node already present.
  EXPECT_FALSE(g.AddEdge(1, 2));   // Edge already present.
  EXPECT_FALSE(g.DelEdge(2, 1));   // Edge absent.
  EXPECT_FALSE(g.DelEdge(7, 9));   // Both endpoints absent.
  EXPECT_FALSE(g.DelNode(42));     // Node absent.
  EXPECT_EQ(g.MutationStamp(), s);
}

TEST(StampSemanticsTest, UndirectedNoOpsNeverBump) {
  UndirectedGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2));
  const uint64_t s = g.MutationStamp();
  EXPECT_FALSE(g.AddNode(2));
  EXPECT_FALSE(g.AddEdge(2, 1));  // Same undirected edge, flipped.
  EXPECT_FALSE(g.DelEdge(3, 4));
  EXPECT_FALSE(g.DelNode(42));
  EXPECT_EQ(g.MutationStamp(), s);
}

TEST(StampSemanticsTest, AddEdgeCreatingEndpointsBumpsOnce) {
  // The historical bug: AddEdge on two missing endpoints bumped three
  // times (twice inside AddNode, once for the edge). The contract is one
  // bump per successful mutation entry point.
  DirectedGraph dg;
  uint64_t s = dg.MutationStamp();
  ASSERT_TRUE(dg.AddEdge(10, 20));  // Creates both endpoints + the edge.
  EXPECT_EQ(dg.MutationStamp(), s + 1);

  UndirectedGraph ug;
  s = ug.MutationStamp();
  ASSERT_TRUE(ug.AddEdge(10, 20));
  EXPECT_EQ(ug.MutationStamp(), s + 1);
}

TEST(StampSemanticsTest, SingleMutationsBumpExactlyOnce) {
  DirectedGraph g;
  uint64_t s = g.MutationStamp();
  ASSERT_TRUE(g.AddNode(5));
  EXPECT_EQ(g.MutationStamp(), s + 1);
  s = g.MutationStamp();
  ASSERT_TRUE(g.AddEdge(5, 6));  // One new endpoint + edge: still one bump.
  EXPECT_EQ(g.MutationStamp(), s + 1);
  s = g.MutationStamp();
  ASSERT_TRUE(g.DelEdge(5, 6));
  EXPECT_EQ(g.MutationStamp(), s + 1);
  s = g.MutationStamp();
  ASSERT_TRUE(g.DelNode(6));
  EXPECT_EQ(g.MutationStamp(), s + 1);
}

TEST(StampSemanticsTest, AutoIdAddNodeUsesWatermark) {
  DirectedGraph g;
  ASSERT_TRUE(g.AddNode(7));
  // The watermark sits past the largest explicit id, so fresh auto ids
  // follow it and each creation bumps exactly once.
  uint64_t s = g.MutationStamp();
  const NodeId a = g.AddNode();
  EXPECT_EQ(a, 8);
  EXPECT_EQ(g.MutationStamp(), s + 1);
  const NodeId b = g.AddNode();
  EXPECT_EQ(b, 9);
  EXPECT_TRUE(g.HasNode(a));
  EXPECT_TRUE(g.HasNode(b));
  EXPECT_EQ(g.NumNodes(), 3);

  UndirectedGraph u;
  ASSERT_TRUE(u.AddNode(3));
  EXPECT_EQ(u.AddNode(), 4);
  EXPECT_EQ(u.AddNode(), 5);
}

// --------------------------------------------------- batch vs sequential

// Applies (inserts-then-deletes) one edge at a time — the semantic model
// ApplyEdgeBatch must match.
template <typename Graph>
void ApplySequential(Graph& g, const std::vector<Edge>& inserts,
                     const std::vector<Edge>& deletes) {
  for (const Edge& e : inserts) g.AddEdge(e.first, e.second);
  for (const Edge& e : deletes) g.DelEdge(e.first, e.second);
}

TEST(EdgeBatchTest, DirectedRandomBatchMatchesSequential) {
  Rng rng(0xBA7C4);
  for (int round = 0; round < 8; ++round) {
    DirectedGraph batch_g = testing::RandomDirected(40, 160, 1000 + round);
    DirectedGraph seq_g = testing::RandomDirected(40, 160, 1000 + round);
    std::vector<Edge> ins, del;
    for (int i = 0; i < 60; ++i) {
      ins.push_back({rng.UniformInt(0, 45), rng.UniformInt(0, 45)});
      del.push_back({rng.UniformInt(0, 45), rng.UniformInt(0, 45)});
    }
    // Duplicates inside one list must be idempotent.
    ins.push_back(ins.front());
    del.push_back(del.front());
    batch_g.ApplyEdgeBatch(ins, del);
    ApplySequential(seq_g, ins, del);
    EXPECT_EQ(testing::EdgeSet(batch_g), testing::EdgeSet(seq_g));
    EXPECT_EQ(batch_g.NumEdges(), seq_g.NumEdges());
    EXPECT_EQ(batch_g.NumNodes(), seq_g.NumNodes());
  }
}

TEST(EdgeBatchTest, UndirectedRandomBatchMatchesSequential) {
  Rng rng(0x5EED);
  for (int round = 0; round < 8; ++round) {
    UndirectedGraph batch_g = testing::RandomUndirected(40, 120, 2000 + round);
    UndirectedGraph seq_g = testing::RandomUndirected(40, 120, 2000 + round);
    std::vector<Edge> ins, del;
    for (int i = 0; i < 50; ++i) {
      ins.push_back({rng.UniformInt(0, 45), rng.UniformInt(0, 45)});
      del.push_back({rng.UniformInt(0, 45), rng.UniformInt(0, 45)});
    }
    // Flipped duplicates name the same undirected edge.
    ins.push_back({ins.front().second, ins.front().first});
    del.push_back({del.front().second, del.front().first});
    batch_g.ApplyEdgeBatch(ins, del);
    ApplySequential(seq_g, ins, del);
    EXPECT_EQ(testing::EdgeSet(batch_g), testing::EdgeSet(seq_g));
    EXPECT_EQ(batch_g.NumEdges(), seq_g.NumEdges());
    EXPECT_EQ(batch_g.NumNodes(), seq_g.NumNodes());
  }
}

TEST(EdgeBatchTest, InsertThenDeleteNetting) {
  DirectedGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2));  // Pre-existing.
  // (1,2) is in both lists and pre-existed: nets to a delete.
  // (3,4) is in both lists and did not exist: nets to nothing (but the
  // endpoints are created, as repeated AddEdge would).
  // (5,6) only inserted: nets to an insert.
  const EdgeBatchStats stats =
      g.ApplyEdgeBatch({{1, 2}, {3, 4}, {5, 6}}, {{1, 2}, {3, 4}});
  EXPECT_EQ(stats.inserted, 1);
  EXPECT_EQ(stats.deleted, 1);
  EXPECT_EQ(stats.new_nodes, 4);  // 3, 4, 5, 6.
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(3, 4));
  EXPECT_TRUE(g.HasNode(3));
  EXPECT_TRUE(g.HasNode(4));
  EXPECT_TRUE(g.HasEdge(5, 6));
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(EdgeBatchTest, BatchBumpsStampExactlyOnce) {
  DirectedGraph g = testing::RandomDirected(20, 60, 0xAB);
  const uint64_t s = g.MutationStamp();
  const EdgeBatchStats stats =
      g.ApplyEdgeBatch({{0, 19}, {1, 18}, {2, 17}, {0, 19}}, {{3, 16}});
  EXPECT_TRUE(stats.Changed());
  EXPECT_EQ(g.MutationStamp(), s + 1);
}

TEST(EdgeBatchTest, NoOpBatchDoesNotBump) {
  DirectedGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2));
  const uint64_t s = g.MutationStamp();
  // Insert of an existing edge + delete of a missing one: nothing changes.
  const EdgeBatchStats stats = g.ApplyEdgeBatch({{1, 2}}, {{2, 1}});
  EXPECT_FALSE(stats.Changed());
  EXPECT_EQ(stats.inserted, 0);
  EXPECT_EQ(stats.deleted, 0);
  EXPECT_EQ(stats.new_nodes, 0);
  EXPECT_EQ(g.MutationStamp(), s);
  // Empty batch is also a no-op.
  EXPECT_FALSE(g.ApplyEdgeBatch({}, {}).Changed());
  EXPECT_EQ(g.MutationStamp(), s);
}

TEST(EdgeBatchTest, UndirectedNormalizationAndSelfLoops) {
  UndirectedGraph g;
  g.ApplyEdgeBatch({{2, 1}, {1, 2}, {3, 3}}, {});
  EXPECT_EQ(g.NumEdges(), 2);  // One normalized edge + one self-loop.
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_TRUE(g.HasEdge(3, 3));
  // Deleting via the flipped orientation works too.
  const EdgeBatchStats stats = g.ApplyEdgeBatch({}, {{2, 1}, {3, 3}});
  EXPECT_EQ(stats.deleted, 2);
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(EdgeBatchTest, AdjacencyStaysSortedAfterBatch) {
  DirectedGraph g = testing::RandomDirected(30, 120, 0xCAFE);
  Rng rng(0xD0D0);
  std::vector<Edge> ins, del;
  for (int i = 0; i < 80; ++i) {
    ins.push_back({rng.UniformInt(0, 29), rng.UniformInt(0, 29)});
    del.push_back({rng.UniformInt(0, 29), rng.UniformInt(0, 29)});
  }
  g.ApplyEdgeBatch(ins, del);
  g.ForEachNode([&](NodeId, const DirectedGraph::NodeView& nd) {
    EXPECT_TRUE(std::is_sorted(nd.out.begin(), nd.out.end()));
    EXPECT_TRUE(std::is_sorted(nd.in.begin(), nd.in.end()));
  });
  // In-adjacency mirrors out-adjacency exactly.
  std::set<Edge> from_out, from_in;
  g.ForEachNode([&](NodeId u, const DirectedGraph::NodeView& nd) {
    for (NodeId v : nd.out) from_out.insert({u, v});
    for (NodeId v : nd.in) from_in.insert({v, u});
  });
  EXPECT_EQ(from_out, from_in);
}

// ------------------------------------------------------------ journaling

TEST(EdgeBatchTest, BatchesJournalAndSingleEdgeMutationsInvalidate) {
  DirectedGraph g = testing::RandomDirected(30, 100, 0x10);
  ASSERT_TRUE(g.delta_journal().empty());  // AddEdge path never journals.
  const uint64_t s0 = g.MutationStamp();
  g.ApplyEdgeBatch({{0, 29}}, {});
  EXPECT_EQ(g.delta_journal().NumBatches(), 1);
  EXPECT_TRUE(g.delta_journal().Covers(s0, g.MutationStamp()));
  g.ApplyEdgeBatch({}, {{0, 29}});
  EXPECT_EQ(g.delta_journal().NumBatches(), 2);
  EXPECT_TRUE(g.delta_journal().Covers(s0, g.MutationStamp()));
  // A non-batch mutation breaks replayability.
  ASSERT_TRUE(g.AddEdge(1, 2) || g.DelEdge(1, 2));
  EXPECT_TRUE(g.delta_journal().empty());
}

TEST(EdgeBatchTest, NodeCreatingBatchJournalsAboveWatermark) {
  DirectedGraph g = testing::RandomDirected(10, 30, 0x11);
  const uint64_t s0 = g.MutationStamp();
  g.ApplyEdgeBatch({{0, 9}}, {});
  ASSERT_FALSE(g.delta_journal().empty());
  // New endpoint 1000 sits above the id watermark: existing snapshot rows
  // keep their dense indices, so the batch journals (node add included).
  const EdgeBatchStats stats = g.ApplyEdgeBatch({{0, 1000}}, {});
  EXPECT_EQ(stats.new_nodes, 1);
  EXPECT_EQ(g.delta_journal().NumBatches(), 2);
  EXPECT_TRUE(g.delta_journal().Covers(s0, g.MutationStamp()));
  EXPECT_EQ(g.delta_journal().NodesSince(s0),
            (std::vector<NodeId>{1000}));
}

TEST(EdgeBatchTest, RecycledNodeIdInvalidatesJournal) {
  DirectedGraph g = testing::RandomDirected(10, 30, 0x12);
  ASSERT_TRUE(g.DelNode(9));
  g.ApplyEdgeBatch({{0, 100}}, {});  // Journals: 100 is above the watermark.
  ASSERT_FALSE(g.delta_journal().empty());
  // Re-creating id 9 lands *below* the watermark: the dense renumbering
  // would shift existing rows, so the batch is not replayable.
  const EdgeBatchStats stats = g.ApplyEdgeBatch({{0, 9}}, {});
  EXPECT_EQ(stats.new_nodes, 1);
  EXPECT_TRUE(g.delta_journal().empty());
}

TEST(DeltaJournalTest, CapDropsEverything) {
  DeltaJournal j;
  j.AppendBatch(2, {{1, 2, +1}, {3, 4, +1}}, /*max_ops=*/3);
  EXPECT_EQ(j.TotalOps(), 2);
  j.AppendBatch(3, {{5, 6, +1}, {7, 8, +1}}, /*max_ops=*/3);  // 4 > 3.
  EXPECT_TRUE(j.empty());
  EXPECT_EQ(j.TotalOps(), 0);
}

TEST(DeltaJournalTest, GapClearsBacklog) {
  DeltaJournal j;
  j.AppendBatch(2, {{1, 2, +1}}, 100);
  j.AppendBatch(3, {{1, 2, -1}}, 100);
  EXPECT_TRUE(j.Covers(1, 3));
  j.AppendBatch(7, {{5, 6, +1}}, 100);  // Stamp gap: 3 → 7.
  EXPECT_FALSE(j.Covers(1, 7));
  EXPECT_TRUE(j.Covers(6, 7));
  EXPECT_EQ(j.NumBatches(), 1);
}

TEST(DeltaJournalTest, OpsSinceAndTrim) {
  DeltaJournal j;
  j.AppendBatch(2, {{1, 2, +1}}, 100);
  j.AppendBatch(3, {{3, 4, +1}}, 100);
  j.AppendBatch(4, {{1, 2, -1}}, 100);
  EXPECT_EQ(j.OpsSince(1).size(), 3u);
  EXPECT_EQ(j.OpsSince(3).size(), 1u);
  j.TrimThrough(3);
  EXPECT_EQ(j.NumBatches(), 1);
  EXPECT_EQ(j.TotalOps(), 1);
  EXPECT_TRUE(j.Covers(3, 4));
  EXPECT_FALSE(j.Covers(2, 4));
}

}  // namespace
}  // namespace ringo
