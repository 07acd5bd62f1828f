#include "core/conversion.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gen/graph_gen.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {
namespace {

using testing::MakeIntTable;

TEST(TableToGraphTest, BasicEdgeList) {
  TablePtr t = MakeIntTable({"src", "dst"}, {{1, 2}, {2, 3}, {1, 3}});
  auto g = TableToGraph(*t, "src", "dst");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 3);
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_TRUE(g->HasEdge(1, 3));
  EXPECT_FALSE(g->HasEdge(3, 1));
}

TEST(TableToGraphTest, DuplicateRowsCollapse) {
  TablePtr t = MakeIntTable({"s", "d"}, {{1, 2}, {1, 2}, {1, 2}, {2, 1}});
  auto g = TableToGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST(TableToGraphTest, SelfLoopsSupported) {
  TablePtr t = MakeIntTable({"s", "d"}, {{5, 5}, {5, 6}});
  auto g = TableToGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
  EXPECT_TRUE(g->HasEdge(5, 5));
}

TEST(TableToGraphTest, AdjacencySortedAndConsistent) {
  TablePtr t = MakeIntTable({"s", "d"},
                            {{3, 9}, {3, 1}, {3, 5}, {9, 3}, {1, 3}});
  auto g = TableToGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  const auto* nd = g->GetNode(3);
  ASSERT_NE(nd, nullptr);
  EXPECT_EQ(nd->out, (std::vector<NodeId>{1, 5, 9}));
  EXPECT_EQ(nd->in, (std::vector<NodeId>{1, 9}));
}

TEST(TableToGraphTest, FloatColumnRejected) {
  Schema s{{"s", ColumnType::kFloat}, {"d", ColumnType::kInt}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({1.0, int64_t{2}}));
  EXPECT_TRUE(TableToGraph(*t, "s", "d").status().IsTypeMismatch());
  EXPECT_TRUE(TableToGraph(*t, "missing", "d").status().IsNotFound());
}

TEST(TableToGraphTest, StringColumnsUsePoolIds) {
  Schema s{{"a", ColumnType::kString}, {"b", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({std::string("x"), std::string("y")}));
  RINGO_CHECK_OK(t->AppendRow({std::string("y"), std::string("z")}));
  auto g = TableToGraph(*t, "a", "b");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 3);
  const NodeId x = t->pool()->Find("x");
  const NodeId y = t->pool()->Find("y");
  EXPECT_TRUE(g->HasEdge(x, y));
}

TEST(TableToGraphTest, EmptyTableGivesEmptyGraph) {
  TablePtr t = MakeIntTable({"s", "d"}, {});
  auto g = TableToGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 0);
  EXPECT_EQ(g->NumEdges(), 0);
}

// Property: sort-first conversion ≡ naive row-by-row insertion.
class ConversionEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConversionEquivalence, SortFirstMatchesNaive) {
  Rng rng(GetParam());
  std::vector<std::vector<int64_t>> rows;
  const int64_t n_rows = 2000 + rng.UniformInt(0, 1000);
  for (int64_t i = 0; i < n_rows; ++i) {
    rows.push_back({rng.UniformInt(0, 200), rng.UniformInt(0, 200)});
  }
  TablePtr t = MakeIntTable({"s", "d"}, rows);
  auto fast = TableToGraph(*t, "s", "d");
  auto naive = TableToGraphNaive(*t, "s", "d");
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(fast->SameStructure(*naive));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConversionEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: graph → table → graph round trip preserves structure.
class ConversionRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConversionRoundTrip, GraphTableGraph) {
  DirectedGraph g = testing::RandomDirected(150, 1200, GetParam());
  TablePtr t = GraphToEdgeTable(g, std::make_shared<StringPool>());
  EXPECT_EQ(t->NumRows(), g.NumEdges());
  auto back = TableToGraph(*t, "SrcId", "DstId");
  ASSERT_TRUE(back.ok());
  // Isolated nodes are lost through an edge table; this graph has none with
  // high probability at this density, so compare the full structure modulo
  // nodes that had no edges.
  g.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(back->HasEdge(u, v)); });
  EXPECT_EQ(back->NumEdges(), g.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConversionRoundTrip,
                         ::testing::Values(7, 8, 9));

TEST(WeightedConversionTest, WeightsAggregateAcrossDuplicates) {
  Schema s{{"s", ColumnType::kInt},
           {"d", ColumnType::kInt},
           {"w", ColumnType::kFloat}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}, 0.5}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}, 1.5}));  // Dup edge.
  RINGO_CHECK_OK(t->AppendRow({int64_t{2}, int64_t{3}, 4.0}));
  auto r = TableToWeightedGraph(*t, "s", "d", "w");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->graph.NumEdges(), 2);
  EXPECT_DOUBLE_EQ(r->weights.Get(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(r->weights.Get(2, 3), 4.0);
}

TEST(WeightedConversionTest, IntWeightColumnAccepted) {
  TablePtr t = MakeIntTable({"s", "d", "w"}, {{1, 2, 7}});
  auto r = TableToWeightedGraph(*t, "s", "d", "w");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->weights.Get(1, 2), 7.0);
}

TEST(WeightedConversionTest, StringWeightRejected) {
  Schema s{{"s", ColumnType::kInt},
           {"d", ColumnType::kInt},
           {"w", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(s));
  RINGO_CHECK_OK(t->AppendRow({int64_t{1}, int64_t{2}, std::string("x")}));
  EXPECT_TRUE(TableToWeightedGraph(*t, "s", "d", "w").status().IsTypeMismatch());
  EXPECT_TRUE(TableToWeightedGraph(*t, "s", "d", "nope").status().IsNotFound());
}

TEST(GraphToEdgeTableTest, OrderedBySourceThenDest) {
  DirectedGraph g;
  g.AddEdge(2, 1);
  g.AddEdge(1, 9);
  g.AddEdge(1, 4);
  TablePtr t = GraphToEdgeTable(g, std::make_shared<StringPool>());
  ASSERT_EQ(t->NumRows(), 3);
  EXPECT_EQ(t->column(0).GetInt(0), 1);
  EXPECT_EQ(t->column(1).GetInt(0), 4);
  EXPECT_EQ(t->column(1).GetInt(1), 9);
  EXPECT_EQ(t->column(0).GetInt(2), 2);
}

TEST(GraphToNodeTableTest, DegreesCorrect) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(3, 2);
  g.AddNode(99);
  TablePtr t = GraphToNodeTable(g, std::make_shared<StringPool>());
  ASSERT_EQ(t->NumRows(), 4);
  // Ascending by id: 1, 2, 3, 99.
  EXPECT_EQ(t->column(0).GetInt(1), 2);
  EXPECT_EQ(t->column(1).GetInt(1), 2);  // InDeg of node 2.
  EXPECT_EQ(t->column(2).GetInt(1), 0);  // OutDeg of node 2.
  EXPECT_EQ(t->column(1).GetInt(3), 0);  // Isolated node 99.
}

TEST(UndirectedConversionTest, MergesDirections) {
  TablePtr t = MakeIntTable({"s", "d"}, {{1, 2}, {2, 1}, {2, 3}, {4, 4}});
  auto g = TableToUndirectedGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 4);
  EXPECT_EQ(g->NumEdges(), 3);  // {1,2}, {2,3}, {4,4}.
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_TRUE(g->HasEdge(3, 2));
  EXPECT_TRUE(g->HasEdge(4, 4));
}

// Like TableToGraph, the undirected build traces extract/sort/count/fill,
// and its fill span carries the node and edge counts.
TEST(UndirectedConversionTest, TracePhases) {
  metrics::SetEnabled(true);
  trace::Clear();
  TablePtr t = MakeIntTable({"s", "d"}, {{1, 2}, {2, 1}, {2, 3}, {3, 3}});
  ASSERT_TRUE(TableToUndirectedGraph(*t, "s", "d").ok());
  std::map<std::string, trace::SpanEvent> by_name;
  for (trace::SpanEvent& e : trace::Spans()) by_name[e.name] = std::move(e);
  for (const char* phase : {"extract", "sort", "count", "fill"}) {
    const std::string name = std::string("TableToUndirectedGraph/") + phase;
    ASSERT_EQ(by_name.count(name), 1u) << name;
    EXPECT_EQ(by_name[name].depth, 1) << name;
  }
  const std::vector<std::pair<std::string, int64_t>> want = {{"nodes", 3},
                                                             {"edges", 3}};
  EXPECT_EQ(by_name["TableToUndirectedGraph/fill"].int_attrs, want);
}

class UndirectedConversionProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(UndirectedConversionProperty, MatchesIncrementalBuild) {
  Rng rng(GetParam());
  std::vector<std::vector<int64_t>> rows;
  UndirectedGraph ref;
  for (int64_t i = 0; i < 3000; ++i) {
    const int64_t u = rng.UniformInt(0, 150);
    const int64_t v = rng.UniformInt(0, 150);
    rows.push_back({u, v});
    ref.AddEdge(u, v);
  }
  TablePtr t = MakeIntTable({"s", "d"}, rows);
  auto g = TableToUndirectedGraph(*t, "s", "d");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->SameStructure(ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndirectedConversionProperty,
                         ::testing::Values(11, 12, 13, 14));

TEST(ConversionThreadingTest, ForcedMultiThreadFillMatchesNaive) {
  // Force real OpenMP threads through the contention-free parallel fill
  // (§2.4): correctness must be independent of the thread count.
  Rng rng(55);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back({rng.UniformInt(0, 500), rng.UniformInt(0, 500)});
  }
  TablePtr t = MakeIntTable({"s", "d"}, rows);
  auto naive = TableToGraphNaive(*t, "s", "d");
  ASSERT_TRUE(naive.ok());
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    auto fast = TableToGraph(*t, "s", "d");
    ASSERT_TRUE(fast.ok());
    EXPECT_TRUE(fast->SameStructure(*naive)) << threads << " threads";
  }
  SetNumThreads(0);
}

TEST(ConversionScaleTest, RMatGraphBuildsCorrectly) {
  const auto edges = gen::RMatEdges(10, 20000, 99).ValueOrDie();
  TablePtr t = MakeIntTable({"s", "d"}, {});
  Column& s = t->mutable_column(0);
  Column& d = t->mutable_column(1);
  for (const Edge& e : edges) {
    s.AppendInt(e.first);
    d.AppendInt(e.second);
  }
  RINGO_CHECK_OK(t->SealAppendedRows(static_cast<int64_t>(edges.size())));
  auto fast = TableToGraph(*t, "s", "d");
  auto naive = TableToGraphNaive(*t, "s", "d");
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast->SameStructure(*naive));
}

}  // namespace
}  // namespace ringo
