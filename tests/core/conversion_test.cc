#include "core/conversion.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/graph_gen.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
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
  const auto nd = g->GetNode(3);
  ASSERT_TRUE(nd.has_value());
  EXPECT_EQ(testing::Ids(nd->out), (std::vector<NodeId>{1, 5, 9}));
  EXPECT_EQ(testing::Ids(nd->in), (std::vector<NodeId>{1, 9}));
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

// Id sets that stress the arc encoding: negative ids, spans on both sides
// of the packed/wide cutoff (2^32 values per endpoint) at the bottom, the
// middle and the top of the int64 range, and the two int64 ends together.
std::vector<std::vector<NodeId>> ExtremeIdSets() {
  constexpr int64_t k31 = int64_t{1} << 31, k32 = int64_t{1} << 32;
  std::vector<std::vector<NodeId>> sets = {
      {-1000003, -77, -5, -1},
      {INT64_MIN, -1, 0, INT64_MAX},
  };
  for (const NodeId lo : {INT64_MIN, NodeId{-3}, INT64_MAX - k32}) {
    for (const int64_t width : {k31 - 1, k31, k32 - 1, k32}) {
      sets.push_back({lo, lo + 1, lo + width / 2, lo + width - 1, lo + width});
    }
  }
  return sets;
}

// Rows over `ids`: every ordered pair once (self-loops included), then
// random pairs, so most pairs repeat.
std::vector<std::vector<int64_t>> RowsOver(const std::vector<NodeId>& ids,
                                           uint64_t seed) {
  std::vector<std::vector<int64_t>> rows;
  for (const NodeId u : ids) {
    for (const NodeId v : ids) rows.push_back({u, v});
  }
  Rng rng(seed);
  const int64_t k = static_cast<int64_t>(ids.size());
  for (int i = 0; i < 20000; ++i) {
    const NodeId u = ids[rng.UniformInt(0, k - 1)];
    rows.push_back({u, ids[rng.UniformInt(0, k - 1)]});
  }
  return rows;
}

TEST(ConversionExtremeIdsTest, MatchEdgeByEdgeBuilds) {
  uint64_t seed = 0;
  for (const std::vector<NodeId>& ids : ExtremeIdSets()) {
    const std::vector<std::vector<int64_t>> rows = RowsOver(ids, ++seed);
    const TablePtr t = MakeIntTable({"s", "d"}, rows);
    const DirectedGraph naive = TableToGraphNaive(*t, "s", "d").ValueOrDie();
    UndirectedGraph ref;
    for (const auto& r : rows) ref.AddEdge(r[0], r[1]);
    // Every third row: the pairs that repeat keep some copies.
    std::vector<int64_t> keep;
    DirectedGraph kept_ref;
    for (int64_t i = 0; i < static_cast<int64_t>(rows.size()); i += 3) {
      keep.push_back(i);
      kept_ref.AddEdge(rows[i][0], rows[i][1]);
    }
    // Radix off sends both arc record types through ParallelSort.
    for (const auto& [threads, radix_on] :
         {std::pair{1, true}, {4, true}, {4, false}}) {
      SetNumThreads(threads);
      radix::SetEnabled(radix_on);
      const std::string where =
          "ids from " + std::to_string(ids.front()) + " to " +
          std::to_string(ids.back()) + ", " + std::to_string(threads) +
          " threads, radix " + (radix_on ? "on" : "off");
      auto g = TableToGraph(*t, "s", "d");
      ASSERT_TRUE(g.ok()) << where;
      EXPECT_TRUE(g->SameStructure(naive)) << where;
      const NodeId fresh = g->AddNode();
      EXPECT_EQ(g->NumNodes(), naive.NumNodes() + 1) << where << " " << fresh;
      auto ug = TableToUndirectedGraph(*t, "s", "d");
      ASSERT_TRUE(ug.ok()) << where;
      EXPECT_TRUE(ug->SameStructure(ref)) << where;
      auto fg = TableToGraphFiltered(*t, "s", "d", keep);
      ASSERT_TRUE(fg.ok()) << where;
      EXPECT_TRUE(fg->SameStructure(kept_ref)) << where;
    }
    SetNumThreads(0);
    radix::SetEnabled(true);
  }
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
