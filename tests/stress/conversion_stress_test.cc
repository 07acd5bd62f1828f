// Stress: the sort-first table→graph conversion (§2.4) and the partitioned
// graph→table writer, across every stress thread count. The conversion's
// phase-2 fill writes adjacency vectors from many threads through shared
// FlatHashMap reads — exactly the pattern TSan must bless — and its output
// must be identical to the sequential naive builder at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;
using testing::ScopedRadix;
using testing::StressThreadCounts;

// Random edge table with duplicate rows and self-loops (the conversion
// must dedup and keep loops).
TablePtr RandomEdgeTable(int64_t rows, int64_t node_space, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> data;
  data.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({rng.UniformInt(0, node_space - 1),
                    rng.UniformInt(0, node_space - 1)});
  }
  return testing::MakeIntTable({"SrcId", "DstId"}, data);
}

TEST(ConversionStress, TableToGraphMatchesNaiveAtEveryThreadCount) {
  const TablePtr t = RandomEdgeTable(60000, 8000, 0xC0FFEE);
  const DirectedGraph naive =
      TableToGraphNaive(*t, "SrcId", "DstId").ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const DirectedGraph g =
        TableToGraph(*t, "SrcId", "DstId").ValueOrDie();
    ASSERT_EQ(g.NumNodes(), naive.NumNodes()) << "tc=" << tc;
    ASSERT_EQ(g.NumEdges(), naive.NumEdges()) << "tc=" << tc;
    ASSERT_TRUE(g.SameStructure(naive)) << "tc=" << tc;
  }
}

TEST(ConversionStress, TableToUndirectedGraphIsThreadCountInvariant) {
  const TablePtr t = RandomEdgeTable(40000, 5000, 0xBEEF);
  // Sequential reference built edge-by-edge.
  UndirectedGraph ref;
  const Column& src = t->column(0);
  const Column& dst = t->column(1);
  for (int64_t i = 0; i < t->NumRows(); ++i) {
    ref.AddEdge(src.GetInt(i), dst.GetInt(i));
  }
  const std::set<Edge> ref_edges = testing::EdgeSet(ref);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const UndirectedGraph g =
        TableToUndirectedGraph(*t, "SrcId", "DstId").ValueOrDie();
    ASSERT_EQ(g.NumNodes(), ref.NumNodes()) << "tc=" << tc;
    ASSERT_EQ(g.NumEdges(), ref.NumEdges()) << "tc=" << tc;
    ASSERT_EQ(testing::EdgeSet(g), ref_edges) << "tc=" << tc;
  }
}

TEST(ConversionStress, GraphToEdgeTableRowsAreThreadCountInvariant) {
  const DirectedGraph g = testing::RandomDirected(4000, 50000, 0xABCD);
  std::vector<std::vector<int64_t>> reference;
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const TablePtr t = GraphToEdgeTable(g, nullptr, "Src", "Dst");
    ASSERT_EQ(t->NumRows(), g.NumEdges()) << "tc=" << tc;
    std::vector<std::vector<int64_t>> rows;
    rows.reserve(t->NumRows());
    for (int64_t r = 0; r < t->NumRows(); ++r) {
      rows.push_back({t->column(0).GetInt(r), t->column(1).GetInt(r)});
    }
    if (reference.empty()) {
      reference = rows;
      // The writer emits sources ascending, destinations ascending within
      // a source — deterministic row order, not just a deterministic set.
      ASSERT_TRUE(std::is_sorted(reference.begin(), reference.end()));
    } else {
      ASSERT_EQ(rows, reference) << "tc=" << tc;
    }
  }
}

// The count phase cuts each sorted arc array into parts and finds head
// boundaries per part. Sources 0..399 head only forward arcs and
// destinations 1000..1399 only reversed ones, each with 100 arcs (50
// distinct, every arc twice), so at 4 threads the 40000-arc arrays split
// exactly at run starts and at 3 threads inside runs, on a duplicate arc.
// The second table adds ten rows that make nodes both sources and
// destinations, shifting every boundary. Each build must equal the
// edge-by-edge one at 1-4 threads.
TEST(ConversionStress, CountPartsSplitSourceOnlyAndDestinationOnlyRuns) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t u = 0; u < 400; ++u) {
    for (int64_t k = 0; k < 100; ++k) {
      rows.push_back({u, 1000 + (u + k / 2) % 400});
    }
  }
  std::vector<std::vector<int64_t>> mixed = rows;
  for (int64_t i = 0; i < 10; ++i) mixed.push_back({1000 + i, i});
  for (const auto* data : {&rows, &mixed}) {
    const TablePtr t = testing::MakeIntTable({"SrcId", "DstId"}, *data);
    const DirectedGraph naive =
        TableToGraphNaive(*t, "SrcId", "DstId").ValueOrDie();
    UndirectedGraph ref;
    for (const auto& r : *data) ref.AddEdge(r[0], r[1]);
    for (const int tc : {1, 2, 3, 4}) {
      ScopedNumThreads threads(tc);
      const DirectedGraph g = TableToGraph(*t, "SrcId", "DstId").ValueOrDie();
      ASSERT_TRUE(g.SameStructure(naive))
          << "tc=" << tc << " rows=" << data->size();
      const UndirectedGraph ug =
          TableToUndirectedGraph(*t, "SrcId", "DstId").ValueOrDie();
      ASSERT_TRUE(ug.SameStructure(ref))
          << "tc=" << tc << " rows=" << data->size();
    }
  }
}

TEST(ConversionStress, RepeatedConversionsAreStable) {
  // Back-to-back conversions reuse OpenMP's thread pool; this catches
  // state leaking between regions (fence tokens, cached partitions).
  const TablePtr t = RandomEdgeTable(20000, 3000, 0x5EED);
  ScopedNumThreads threads(StressThreadCounts().back());
  const DirectedGraph first =
      TableToGraph(*t, "SrcId", "DstId").ValueOrDie();
  for (int rep = 0; rep < 5; ++rep) {
    const DirectedGraph g =
        TableToGraph(*t, "SrcId", "DstId").ValueOrDie();
    ASSERT_TRUE(g.SameStructure(first)) << "rep=" << rep;
  }
}

// ---- Partition-first builds at their edges ----
//
// The builds scatter every arc into a partition chosen by the top bits of
// its head's offset from the smallest id, sort and dedup each partition on
// one worker, sort a partition holding more than arcs / threads on every
// core, and place the partitions' distinct arcs back to back. Each input
// below aims at one edge of that pipeline. Every build must lay its graph
// out exactly as a bulk build from std::set models does (same node order,
// runs, NumEdges and arena stats) and equal the edge-by-edge builds, at
// 1-4 threads with the radix kernel on and off.

using Rows = std::vector<Edge>;

TablePtr IntTable(const Rows& rows) {
  TablePtr t = Table::Create(
      Schema{{"s", ColumnType::kInt}, {"d", ColumnType::kInt}});
  Column& s = t->mutable_column(0);
  Column& d = t->mutable_column(1);
  const int64_t n = static_cast<int64_t>(rows.size());
  s.ResizeForOverwrite(n);
  d.ResizeForOverwrite(n);
  for (int64_t i = 0; i < n; ++i) {
    s.SetInt(i, rows[i].first);
    d.SetInt(i, rows[i].second);
  }
  t->SealAppendedRows(n).Abort("IntTable");
  return t;
}

// The bulk layout of `rows`: ascending nodes, and every node's ascending
// run at exact capacity, back to back, from std::set models of the arcs.
template <typename Graph>
Graph BulkLayout(const Rows& rows) {
  constexpr int kDirs = Graph::kDirs;
  std::set<NodeId> nodes;
  std::array<std::set<Edge>, kDirs> arcs;
  for (const auto& [u, v] : rows) {
    nodes.insert(u);
    nodes.insert(v);
    arcs[0].insert({u, v});
    arcs[kDirs - 1].insert({v, u});
  }
  SortedRuns<kDirs> runs;
  runs.nodes.assign(nodes.begin(), nodes.end());
  for (int d = 0; d < kDirs; ++d) {
    auto it = arcs[d].begin();
    for (const NodeId u : runs.nodes) {
      runs.begin[d].push_back(static_cast<int64_t>(runs.arcs[d].size()));
      for (; it != arcs[d].end() && it->first == u; ++it) {
        runs.arcs[d].push_back(it->second);
      }
    }
    runs.begin[d].push_back(static_cast<int64_t>(runs.arcs[d].size()));
  }
  return Graph(std::move(runs));
}

template <typename Graph>
void ExpectBulkLayout(const Graph& g, const Graph& want,
                      const std::string& where) {
  // The node table's iteration order is its slot layout.
  EXPECT_EQ(g.NodeIds(), want.NodeIds()) << where;
  EXPECT_TRUE(g.SameStructure(want)) << where;
  EXPECT_EQ(g.NumEdges(), want.NumEdges()) << where;
  const ArenaStats got = g.arena_stats(), exp = want.arena_stats();
  EXPECT_EQ(got.words, exp.words) << where;
  EXPECT_EQ(got.dead_words, 0) << where;
  EXPECT_EQ(got.relocations, 0) << where;
  EXPECT_EQ(got.compactions, 0) << where;
  bool ascending = true;
  g.ForEachNode([&](NodeId, const auto& nd) {
    const auto strictly = [](std::span<const NodeId> run) {
      return std::adjacent_find(run.begin(), run.end(),
                                std::greater_equal<>()) == run.end();
    };
    if constexpr (requires { nd.out; }) {
      ascending = ascending && strictly(nd.out) && strictly(nd.in);
    } else {
      ascending = ascending && strictly(nd.nbrs);
    }
  });
  EXPECT_TRUE(ascending) << where;
}

// Builds both graphs from t's columns "s" and "d" (whose ids, as the
// builds read them, are `rows`) at 1-4 threads, radix on and off, and
// checks them against the bulk layout and the edge-by-edge builds. With
// `keep`, the directed build is TableToGraphFiltered over those rows.
void ExpectBuildsMatch(const TablePtr& t, const Rows& rows,
                       const std::string& name,
                       const std::vector<int64_t>* keep = nullptr) {
  Rows kept = rows;
  if (keep != nullptr) {
    kept.clear();
    for (const int64_t r : *keep) kept.push_back(rows[r]);
  }
  const DirectedGraph want = BulkLayout<DirectedGraph>(kept);
  const UndirectedGraph uwant = BulkLayout<UndirectedGraph>(rows);
  DirectedGraph naive;
  for (const auto& [u, v] : kept) naive.AddEdge(u, v);
  if (keep == nullptr) {
    const DirectedGraph table_naive =
        TableToGraphNaive(*t, "s", "d").ValueOrDie();
    ASSERT_TRUE(table_naive.SameStructure(naive)) << name;
  }
  UndirectedGraph edge_by_edge;
  for (const auto& [u, v] : rows) edge_by_edge.AddEdge(u, v);
  for (const int tc : {1, 2, 3, 4}) {
    for (const bool radix_on : {true, false}) {
      ScopedNumThreads threads(tc);
      ScopedRadix radix(radix_on);
      const std::string where = name + ", " + std::to_string(tc) +
                                " threads, radix " + (radix_on ? "on" : "off");
      const DirectedGraph g =
          keep != nullptr
              ? TableToGraphFiltered(*t, "s", "d", *keep).ValueOrDie()
              : TableToGraph(*t, "s", "d").ValueOrDie();
      ExpectBulkLayout(g, want, where);
      EXPECT_TRUE(g.SameStructure(naive)) << where;
      const UndirectedGraph ug =
          TableToUndirectedGraph(*t, "s", "d").ValueOrDie();
      ExpectBulkLayout(ug, uwant, where);
      EXPECT_TRUE(ug.SameStructure(edge_by_edge)) << where;
    }
  }
}

// Ids 0 and 2^16 - 1 fix a 16-bit span, so every partition boundary is a
// multiple of 2^(16 - digits) with at most 8 digits at these sizes; every
// head sits on a multiple of 256 or one away from it.
TEST(ConversionStress, HeadsAtPartitionBoundaries) {
  std::vector<NodeId> ids = {0, (1 << 16) - 1};
  for (NodeId x = 256; x < (1 << 16); x += 256) {
    ids.insert(ids.end(), {x - 1, x, x + 1});
  }
  for (const int64_t n : {int64_t{3000}, int64_t{50000}}) {
    Rng rng(0xB0DE + n);
    Rows rows = {{0, (1 << 16) - 1}};
    const int64_t k = static_cast<int64_t>(ids.size());
    while (static_cast<int64_t>(rows.size()) < n) {
      rows.push_back({ids[rng.UniformInt(0, k - 1)],
                      ids[rng.UniformInt(0, k - 1)]});
    }
    ExpectBuildsMatch(IntTable(rows), rows,
                      "boundaries n=" + std::to_string(n));
  }
}

// A star plus noise: node 7 owns over 90% of the arcs (some repeated), so
// its partition exceeds arcs / threads and takes the every-core sort.
TEST(ConversionStress, HubOwningNearlyAllArcs) {
  Rng rng(0x5A2);
  Rows rows;
  for (int64_t i = 0; i < 46000; ++i) {
    rows.push_back({7, rng.UniformInt(0, 30000)});
  }
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back({rng.UniformInt(0, 30000), rng.UniformInt(0, 30000)});
  }
  ExpectBuildsMatch(IntTable(rows), rows, "hub");
}

// Nearly every row repeats one of five arcs (two of them self-loops).
TEST(ConversionStress, RowsRepeatingAFewArcs) {
  const Rows few = {{3, 9}, {9, 3}, {3, 3}, {100000, 5}, {5, 5}};
  Rng rng(0xD0B);
  Rows rows;
  for (int64_t i = 0; i < 40000; ++i) {
    rows.push_back(few[rng.UniformInt(0, 4)]);
  }
  rows.push_back({77, 78});
  ExpectBuildsMatch(IntTable(rows), rows, "repeats");
}

TEST(ConversionStress, SelfLoopsOnlyAndOneRow) {
  Rng rng(0x5E1F);
  Rows loops;
  for (int64_t i = 0; i < 30000; ++i) {
    const NodeId u = rng.UniformInt(-500, 500);
    loops.push_back({u, u});
  }
  ExpectBuildsMatch(IntTable(loops), loops, "self-loops");
  for (const Rows& one : {Rows{{5, 9}}, Rows{{-3, -3}}}) {
    ExpectBuildsMatch(IntTable(one), one, "one row");
  }
}

// Id spans of 2^32 - 1 (the widest packed arc) and 2^32 (wide records).
TEST(ConversionStress, SpansAroundThePackedLimit) {
  for (const int64_t width : {(int64_t{1} << 32) - 1, int64_t{1} << 32}) {
    const NodeId lo = -7;
    Rng rng(static_cast<uint64_t>(width));
    Rows rows = {{lo, lo + width}, {lo + width, lo}};
    while (rows.size() < 40000) {
      // Half the ids near either end, so both partitions at the ends fill.
      const auto id = [&] {
        const int64_t off = rng.UniformInt(0, 2000);
        return rng.UniformInt(0, 1) == 0 ? lo + off : lo + width - off;
      };
      rows.push_back({id(), id()});
    }
    ExpectBuildsMatch(IntTable(rows), rows,
                      "span " + std::to_string(width));
  }
}

// String id columns read pool ids in place; an encoded column (and a
// string column with its own dictionary) goes through the element
// accessor.
TEST(ConversionStress, StringAndEncodedIdColumns) {
  Rng rng(0x57A);
  Rows pairs;
  for (int64_t i = 0; i < 30000; ++i) {
    pairs.push_back({rng.UniformInt(0, 3000), rng.UniformInt(0, 3000)});
  }
  // Plain int columns, then both encoded.
  TablePtr ints = IntTable(pairs);
  ExpectBuildsMatch(ints, pairs, "plain ints");
  ASSERT_TRUE(ints->mutable_column(0).Encode());
  ASSERT_TRUE(ints->mutable_column(1).Encode());
  ExpectBuildsMatch(ints, pairs, "encoded ints");

  TablePtr strs = Table::Create(
      Schema{{"s", ColumnType::kString}, {"d", ColumnType::kString}});
  Column& s = strs->mutable_column(0);
  Column& d = strs->mutable_column(1);
  const int64_t n = static_cast<int64_t>(pairs.size());
  s.ResizeForOverwrite(n);
  d.ResizeForOverwrite(n);
  Rows pool_ids;
  for (int64_t i = 0; i < n; ++i) {
    const StringPool::Id a =
        strs->pool()->GetOrAdd("n" + std::to_string(pairs[i].first));
    const StringPool::Id b =
        strs->pool()->GetOrAdd("n" + std::to_string(pairs[i].second));
    s.SetStr(i, a);
    d.SetStr(i, b);
    pool_ids.push_back({a, b});
  }
  strs->SealAppendedRows(n).Abort("strings");
  ExpectBuildsMatch(strs, pool_ids, "strings");
  ASSERT_TRUE(strs->mutable_column(1).Encode());
  ExpectBuildsMatch(strs, pool_ids, "strings, dst encoded");
}

// Filtered builds read only the kept rows: sparse (below the one-part
// cutoff) and dense keep lists over one table.
TEST(ConversionStress, FilteredOverSparseKeepLists) {
  Rng rng(0xF17);
  Rows rows;
  for (int64_t i = 0; i < 60000; ++i) {
    rows.push_back({rng.UniformInt(0, 20000), rng.UniformInt(0, 20000)});
  }
  const TablePtr t = IntTable(rows);
  for (const int64_t step : {int64_t{37}, int64_t{3}}) {
    std::vector<int64_t> keep;
    for (int64_t r = step / 2; r < static_cast<int64_t>(rows.size());
         r += step) {
      keep.push_back(r);
    }
    ExpectBuildsMatch(t, rows, "keep every " + std::to_string(step), &keep);
  }
}

// Sizes on both sides of the 16K cutoffs: row parts (rows) and sort
// workers (arcs, twice the rows).
TEST(ConversionStress, SizesAroundTheOnePartCutoff) {
  for (const int64_t n : {int64_t{8191}, int64_t{8193}, int64_t{16384},
                          int64_t{16385}}) {
    Rng rng(0xC07 + n);
    Rows rows;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back({rng.UniformInt(0, 4000), rng.UniformInt(0, 4000)});
    }
    ExpectBuildsMatch(IntTable(rows), rows, "n=" + std::to_string(n));
  }
}

// The graph layer's large arrays come from the block pool (DESIGN.md §20).
// LiveJournalSim 0.3 gives arc buffers, arenas, node tables and AlgoView
// neighbour arrays above the pool's 2 MiB floor. A convert → view →
// release cycle returns every block, so the same cycle again maps none,
// and both cycles lay their graphs out exactly as the bulk layout does.
TEST(ConversionStress, RepeatedCyclesReusePooledBlocks) {
  const Rows rows = gen::LiveJournalSimEdges(0.3);
  const TablePtr t = IntTable(rows);
  const DirectedGraph want = BulkLayout<DirectedGraph>(rows);
  const UndirectedGraph uwant = BulkLayout<UndirectedGraph>(rows);
  const bool metrics_were_on = metrics::Enabled();
  metrics::SetEnabled(true);
  ScopedNumThreads threads(StressThreadCounts().back());
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::string where = "cycle " + std::to_string(cycle);
    const int64_t maps = metrics::CounterValue("mem/pool_map");
    const int64_t takes = metrics::CounterValue("mem/pool_hit") + maps;
    {
      const DirectedGraph g = TableToGraph(*t, "s", "d").ValueOrDie();
      const auto view = AlgoView::Of(g);
      EXPECT_EQ(view->NumOutArcs(), g.NumEdges()) << where;
      ExpectBulkLayout(g, want, where);
      const UndirectedGraph ug = TableToUndirectedGraph(*t, "s", "d")
                                     .ValueOrDie();
      const auto uview = AlgoView::Of(ug);
      EXPECT_EQ(uview->node_index().ids(), ug.SortedNodeIds()) << where;
      ExpectBulkLayout(ug, uwant, where);
    }
    EXPECT_GT(metrics::CounterValue("mem/pool_hit") +
                  metrics::CounterValue("mem/pool_map"),
              takes)
        << where;
    if (cycle == 1) {
      EXPECT_EQ(metrics::CounterValue("mem/pool_map"), maps) << where;
    }
  }
  metrics::SetEnabled(metrics_were_on);
}

}  // namespace
}  // namespace ringo
