// Stress: the sort-first table→graph conversion (§2.4) and the partitioned
// graph→table writer, across every stress thread count. The conversion's
// phase-2 fill writes adjacency vectors from many threads through shared
// FlatHashMap reads — exactly the pattern TSan must bless — and its output
// must be identical to the sequential naive builder at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/conversion.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;
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

}  // namespace
}  // namespace ringo
