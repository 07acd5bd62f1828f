// Stress: the radix sort path against the comparison sort path. Every
// sort-driven operator (OrderBy, Unique, GroupByAggregate, NextK, TopK,
// set ops) and the sort-first conversions must produce *bit-identical*
// results whether the radix kernel is enabled or not, at every stress
// thread count — the radix path is stable over ascending-row input, which
// is exactly the comparison path's position tiebreak. This file is part
// of the `stress` label, so it also runs under TSan.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/conversion.h"
#include "stress/stress_support.h"
#include "table/table.h"
#include "util/radix_sort.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;
using testing::StressThreadCounts;

// RAII toggle for the radix kill switch.
class ScopedRadix {
 public:
  explicit ScopedRadix(bool on) : prev_(radix::Enabled()) {
    radix::SetEnabled(on);
  }
  ~ScopedRadix() { radix::SetEnabled(prev_); }
  ScopedRadix(const ScopedRadix&) = delete;
  ScopedRadix& operator=(const ScopedRadix&) = delete;

 private:
  bool prev_;
};

// Large enough that the kernel takes its multi-part path (> 1 << 14).
constexpr int64_t kRows = 40000;

// Mixed-type test table: group ints (heavy duplicates), value ints with
// negatives, floats with ties, strings from a vocabulary interned in
// non-byte order.
TablePtr MakeMixedTable(int64_t n, uint64_t seed) {
  Schema schema{{"g", ColumnType::kInt},
                {"v", ColumnType::kInt},
                {"f", ColumnType::kFloat},
                {"s", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(schema));
  const std::vector<std::string> vocab = {"pear", "apple", "zebra",
                                          "apples", "Pear", "banana", ""};
  SplitMix64 mix(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = static_cast<int64_t>(mix() % 50);
    const int64_t v = static_cast<int64_t>(mix() % 1000) - 500;
    const double f = static_cast<double>(static_cast<int64_t>(mix() % 64) - 32) / 4.0;
    const std::string& s = vocab[mix() % vocab.size()];
    RINGO_CHECK_OK(t->AppendRow({g, v, f, s}));
  }
  return t;
}

// Two-int-column edge-list style table (node ids reused heavily so the
// conversions collapse duplicates and aggregate weights).
TablePtr MakeEdgeTable(int64_t n, uint64_t seed, bool with_weight) {
  Schema schema = with_weight
                      ? Schema{{"src", ColumnType::kInt},
                               {"dst", ColumnType::kInt},
                               {"w", ColumnType::kFloat}}
                      : Schema{{"src", ColumnType::kInt},
                               {"dst", ColumnType::kInt}};
  TablePtr t = Table::Create(std::move(schema));
  SplitMix64 mix(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t src = static_cast<int64_t>(mix() % 300);
    const int64_t dst = static_cast<int64_t>(mix() % 300);
    if (with_weight) {
      const double w = static_cast<double>(mix() % 16) / 8.0;
      RINGO_CHECK_OK(t->AppendRow({src, dst, w}));
    } else {
      RINGO_CHECK_OK(t->AppendRow({src, dst}));
    }
  }
  return t;
}

// Bit-identical table equality: schema, row ids, and every cell (doubles
// compared by bits so ±0.0 or NaN drift would be caught).
void ExpectSameTable(const Table& a, const Table& b, const std::string& ctx) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << ctx;
  ASSERT_EQ(a.NumRows(), b.NumRows()) << ctx;
  for (int64_t r = 0; r < a.NumRows(); ++r) {
    ASSERT_EQ(a.RowId(r), b.RowId(r)) << ctx << " row " << r;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type()) << ctx << " col " << c;
    for (int64_t r = 0; r < a.NumRows(); ++r) {
      switch (ca.type()) {
        case ColumnType::kInt:
          ASSERT_EQ(ca.GetInt(r), cb.GetInt(r)) << ctx << " col " << c
                                                << " row " << r;
          break;
        case ColumnType::kFloat: {
          uint64_t ba, bb;
          const double da = ca.GetFloat(r), db = cb.GetFloat(r);
          std::memcpy(&ba, &da, sizeof(ba));
          std::memcpy(&bb, &db, sizeof(bb));
          ASSERT_EQ(ba, bb) << ctx << " col " << c << " row " << r;
          break;
        }
        case ColumnType::kString:
          // Outputs of the same input table share its pool, so ids match.
          ASSERT_EQ(ca.GetStr(r), cb.GetStr(r)) << ctx << " col " << c
                                                << " row " << r;
          break;
      }
    }
  }
}

// Runs `op` with the radix path disabled at one thread (the reference),
// then asserts the radix-enabled result is bit-identical at every stress
// thread count.
template <typename Op>
void ExpectRadixParity(const std::string& ctx, Op op) {
  TablePtr ref;
  {
    ScopedNumThreads threads(1);
    ScopedRadix radix_off(false);
    auto r = op();
    ASSERT_TRUE(r.ok()) << ctx;
    ref = *r;
  }
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    {
      ScopedRadix radix_on(true);
      auto r = op();
      ASSERT_TRUE(r.ok()) << ctx;
      ExpectSameTable(**r, *ref, ctx + " radix tc=" + std::to_string(tc));
    }
    {
      ScopedRadix radix_off(false);
      auto r = op();
      ASSERT_TRUE(r.ok()) << ctx;
      ExpectSameTable(**r, *ref, ctx + " cmp tc=" + std::to_string(tc));
    }
  }
}

TEST(RadixParityStress, OrderBySingleColumns) {
  const TablePtr t = MakeMixedTable(kRows, 0xA11CE);
  for (const char* col : {"g", "v", "f", "s"}) {
    ExpectRadixParity(std::string("OrderBy ") + col,
                      [&] { return t->OrderBy({col}); });
    ExpectRadixParity(std::string("OrderBy desc ") + col,
                      [&] { return t->OrderBy({col}, {false}); });
  }
}

TEST(RadixParityStress, OrderByTwoColumnsMixedDirections) {
  const TablePtr t = MakeMixedTable(kRows, 0xB0B);
  ExpectRadixParity("OrderBy (g,v)", [&] { return t->OrderBy({"g", "v"}); });
  ExpectRadixParity("OrderBy (s,f) asc/desc", [&] {
    return t->OrderBy({"s", "f"}, {true, false});
  });
  // Three key columns always take the comparison path; parity is trivial
  // but the call must still succeed with the radix switch on.
  ExpectRadixParity("OrderBy (g,v,s)",
                    [&] { return t->OrderBy({"g", "v", "s"}); });
}

TEST(RadixParityStress, UniqueAndGroupBy) {
  const TablePtr t = MakeMixedTable(kRows, 0xC0DE);
  ExpectRadixParity("Unique (g,s)", [&] { return t->Unique({"g", "s"}); });
  ExpectRadixParity("GroupBy g", [&] {
    return t->GroupByAggregate({"g"}, {{"v", AggFn::kSum, "total"},
                                       {"f", AggFn::kMin, "lo"}});
  });
  ExpectRadixParity("GroupBy (g,s)", [&] {
    return t->GroupByAggregate({"g", "s"}, {{"v", AggFn::kCount, "n"}});
  });
}

TEST(RadixParityStress, NextKAndTopK) {
  const TablePtr t = MakeMixedTable(kRows, 0xDEED);
  ExpectRadixParity("NextK (g,v)",
                    [&] { return Table::NextK(*t, "g", "v", 2); });
  ExpectRadixParity("TopK f", [&] { return t->TopK("f", 500); });
  ExpectRadixParity("TopK v desc", [&] { return t->TopK("v", 500, false); });
}

TEST(RadixParityStress, SetOps) {
  const TablePtr a = MakeEdgeTable(kRows, 0xAAA, /*with_weight=*/false);
  const TablePtr b = MakeEdgeTable(kRows, 0xBBB, /*with_weight=*/false);
  ExpectRadixParity("Union", [&] { return Table::UnionTables(*a, *b); });
  ExpectRadixParity("Intersect",
                    [&] { return Table::IntersectTables(*a, *b); });
  ExpectRadixParity("Minus", [&] { return Table::MinusTables(*a, *b); });
}

// Both builds, directed and undirected: each sorts its own arc arrays, so
// each has its own comparison fallback to hold against the radix path.
TEST(RadixParityStress, TableToGraphMatchesComparisonPath) {
  const TablePtr t = MakeEdgeTable(kRows, 0x9999, /*with_weight=*/false);
  DirectedGraph ref;
  UndirectedGraph uref;
  {
    ScopedNumThreads threads(1);
    ScopedRadix radix_off(false);
    auto g = TableToGraph(*t, "src", "dst");
    ASSERT_TRUE(g.ok());
    ref = std::move(*g);
    auto ug = TableToUndirectedGraph(*t, "src", "dst");
    ASSERT_TRUE(ug.ok());
    uref = std::move(*ug);
  }
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ScopedRadix radix_on(true);
    auto g = TableToGraph(*t, "src", "dst");
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->SameStructure(ref)) << "tc=" << tc;
    auto ug = TableToUndirectedGraph(*t, "src", "dst");
    ASSERT_TRUE(ug.ok());
    EXPECT_TRUE(ug->SameStructure(uref)) << "tc=" << tc;
  }
}

TEST(RadixParityStress, TableToWeightedGraphWeightsBitIdentical) {
  const TablePtr t = MakeEdgeTable(kRows, 0x7777, /*with_weight=*/true);
  WeightedGraphResult ref;
  {
    ScopedNumThreads threads(1);
    ScopedRadix radix_off(false);
    auto g = TableToWeightedGraph(*t, "src", "dst", "w");
    ASSERT_TRUE(g.ok());
    ref = std::move(*g);
  }
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ScopedRadix radix_on(true);
    auto g = TableToWeightedGraph(*t, "src", "dst", "w");
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(g->graph.SameStructure(ref.graph)) << "tc=" << tc;
    ASSERT_EQ(g->weights.size(), ref.weights.size()) << "tc=" << tc;
    // Duplicate-edge weight sums must come out bit-identical: both paths
    // accumulate contributions in ascending source-row order.
    ref.graph.ForEachEdge([&](NodeId u, NodeId v) {
      uint64_t br, bg;
      const double wr = ref.weights.Get(u, v), wg = g->weights.Get(u, v);
      std::memcpy(&br, &wr, sizeof(br));
      std::memcpy(&bg, &wg, sizeof(bg));
      ASSERT_EQ(bg, br) << "tc=" << tc << " edge " << u << "->" << v;
    });
  }
}

TEST(RadixKernelStress, ThreadCountInvariance) {
  constexpr int64_t kN = 120000;
  SplitMix64 mix(0x5151);
  std::vector<KeyRow2> input(kN);
  for (int64_t i = 0; i < kN; ++i) {
    input[i] = {mix() % 512, mix(), i};
  }
  std::vector<KeyRow2> ref;
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    std::vector<KeyRow2> v = input;
    RadixSortKeyRows2(v.data(), kN);
    if (ref.empty()) {
      ref = std::move(v);
      continue;
    }
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(v[i].hi, ref[i].hi) << "tc=" << tc << " i=" << i;
      ASSERT_EQ(v[i].lo, ref[i].lo) << "tc=" << tc << " i=" << i;
      ASSERT_EQ(v[i].row, ref[i].row) << "tc=" << tc << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ringo
