// Stress: grouping and top-k against the oracles in test_support.h, at 1
// to 4 threads.
//
//   * GroupByAggregate with every AggFn over 1, 2 and 3 key columns (and a
//     near-unique key), GroupIndex, Unique, and UnionTables,
//     IntersectTables and MinusTables (b in a's pool and in its own),
//     against std::map and std::set oracles over each row's key tuple.
//   * TopK ascending and descending with k in {0, 1, 7, n-1, n, n+1},
//     against std::stable_sort with the NaN-last order.
//
// Seeded tables carry ties, NaN, ±0 and ±inf, strings (one of them
// empty), int sums that wrap, groups whose float cells are all NaN, and
// run plain and with every encodable column dictionary- or FOR-encoded.
// Sizes are 0, 1, the sequential cutoff ±1 and over 200K rows (the last
// with a shorter list of keys and top-k columns, for TSan). Outputs
// must equal the oracle cell for cell (floats by bit pattern; NaN by
// NaN-ness), and gathered rows must keep their row ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "stress/stress_support.h"
#include "table/table.h"
#include "test_support.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ringo {
namespace {

using testing::RefColumn;
using testing::ReferenceGroupBy;
using testing::ReferenceGroups;
using testing::ReferenceTopK;
using testing::RefGroupCell;
using testing::ScopedNumThreads;

constexpr int kMaxThreads = 4;
constexpr int64_t kCutoff = internal::kParallelRangeCutoff;
constexpr int64_t kLarge = 200003;

// Columns for n rows:
//   g     ints in [0, 40), skewed toward small values (ties; group key)
//   s     strings from a set of 7, one of them empty (dictionary)
//   f     floats from a set with NaN, ±0 and ±inf (dictionary)
//   w     ints within 1000 of INT64_MAX or INT64_MIN, so sums wrap (FOR)
//   x     wide-range floats with ~1% NaN (stays plain)
//   nanf  NaN whenever g % 5 == 0, so those groups' cells are all NaN
//   d     few distinct, widely spread ints (dictionary)
//   u     high-cardinality strings (near-unique key)
TablePtr MakeTable(int64_t n, uint64_t seed, std::shared_ptr<StringPool> pool) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double fset[] = {0.0, -0.0, 0.5, -1.25, inf, -inf, nan, 3.0};
  const char* sset[] = {"alpha", "beta", "gamma", "", "delta", "eps", "zeta"};
  const int64_t dset[] = {-7000000000, -3, 0, 5, 12, 900, 1 << 30};
  const int64_t big = std::numeric_limits<int64_t>::max();
  Schema schema{{"g", ColumnType::kInt},    {"s", ColumnType::kString},
                {"f", ColumnType::kFloat},  {"w", ColumnType::kInt},
                {"x", ColumnType::kFloat},  {"nanf", ColumnType::kFloat},
                {"d", ColumnType::kInt},    {"u", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = rng.UniformInt(0, 39) % (1 + rng.UniformInt(0, 39));
    const int64_t w = rng.UniformInt(0, 1) == 0
                          ? big - rng.UniformInt(0, 999)
                          : -big + rng.UniformInt(0, 999);
    const double x =
        rng.UniformInt(0, 99) == 0
            ? nan
            : static_cast<double>(rng.UniformInt(-1000000, 1000000)) / 7.0;
    const double nanf =
        g % 5 == 0 ? nan : static_cast<double>(rng.UniformInt(-50, 50)) / 4.0;
    t->AppendRow({g, std::string(sset[rng.UniformInt(0, 6)]),
                  fset[rng.UniformInt(0, 7)], w, x, nanf,
                  dset[rng.UniformInt(0, 6)],
                  "u" + std::to_string(rng.UniformInt(0, n))})
        .Abort("MakeTable");
  }
  return t;
}

bool SameFloat(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// `out` equals the reference columns cell for cell, names and types too.
void ExpectCells(const Table& out, const std::vector<RefColumn>& want,
                 const std::string& what) {
  ASSERT_EQ(out.num_columns(), static_cast<int>(want.size())) << what;
  for (int c = 0; c < out.num_columns(); ++c) {
    const RefColumn& rc = want[c];
    const Column& col = out.column(c);
    ASSERT_EQ(out.schema().column(c).name, rc.name) << what;
    ASSERT_EQ(col.type(), rc.type) << what << ": column " << rc.name;
    int64_t n = 0, bad = -1;
    switch (rc.type) {
      case ColumnType::kInt:
        n = static_cast<int64_t>(rc.ints.size());
        ASSERT_EQ(out.NumRows(), n) << what;
        for (int64_t r = 0; r < n && bad < 0; ++r) {
          if (col.GetInt(r) != rc.ints[r]) bad = r;
        }
        break;
      case ColumnType::kFloat:
        n = static_cast<int64_t>(rc.floats.size());
        ASSERT_EQ(out.NumRows(), n) << what;
        for (int64_t r = 0; r < n && bad < 0; ++r) {
          if (!SameFloat(col.GetFloat(r), rc.floats[r])) bad = r;
        }
        break;
      case ColumnType::kString:
        n = static_cast<int64_t>(rc.strs.size());
        ASSERT_EQ(out.NumRows(), n) << what;
        for (int64_t r = 0; r < n && bad < 0; ++r) {
          if (out.pool()->Get(col.GetStr(r)) != rc.strs[r]) bad = r;
        }
        break;
    }
    EXPECT_EQ(bad, -1) << what << ": column '" << rc.name
                       << "' differs first at row " << bad;
  }
}

// Whether out's row i and src's row r hold the same cells: ints and
// string bytes equal, floats by bit pattern (NaN by NaN-ness).
bool SameRow(const Table& out, int64_t i, const Table& src, int64_t r) {
  for (int c = 0; c < src.num_columns(); ++c) {
    const Column& a = out.column(c);
    const Column& b = src.column(c);
    switch (b.type()) {
      case ColumnType::kInt:
        if (a.GetInt(i) != b.GetInt(r)) return false;
        break;
      case ColumnType::kFloat:
        if (!SameFloat(a.GetFloat(i), b.GetFloat(r))) return false;
        break;
      case ColumnType::kString:
        if (out.pool()->Get(a.GetStr(i)) != src.pool()->Get(b.GetStr(r))) {
          return false;
        }
        break;
    }
  }
  return true;
}

// `out` holds `src`'s rows `rows`, in order, every cell and row id equal.
void ExpectGathered(const Table& out, const Table& src,
                    const std::vector<int64_t>& rows, const std::string& what) {
  const int64_t n = static_cast<int64_t>(rows.size());
  ASSERT_EQ(out.NumRows(), n) << what;
  ASSERT_EQ(out.num_columns(), src.num_columns()) << what;
  int64_t bad = -1;
  for (int64_t i = 0; i < n && bad < 0; ++i) {
    if (out.RowId(i) != src.RowId(rows[i]) || !SameRow(out, i, src, rows[i])) {
      bad = i;
    }
  }
  EXPECT_EQ(bad, -1) << what << ": differs first at output row " << bad;
}

std::vector<int> Indices(const Table& t, const std::vector<std::string>& cols) {
  std::vector<int> idx;
  for (const std::string& c : cols) idx.push_back(*t.FindColumn(c));
  return idx;
}

std::string Join(const std::vector<std::string>& cols) {
  std::string out;
  for (const std::string& c : cols) out += (out.empty() ? "" : ",") + c;
  return out;
}

// Every AggFn over the int column w (whose sums wrap) and the float
// column x, min and max over nanf (all-NaN groups), and first of s.
std::vector<AggSpec> AllAggs() {
  return {{"", AggFn::kCount, "n"},          {"w", AggFn::kSum, "w_sum"},
          {"w", AggFn::kMin, "w_min"},       {"w", AggFn::kMax, "w_max"},
          {"w", AggFn::kMean, "w_mean"},     {"w", AggFn::kFirst, "w_first"},
          {"x", AggFn::kSum, "x_sum"},       {"x", AggFn::kMin, "x_min"},
          {"x", AggFn::kMax, "x_max"},       {"x", AggFn::kMean, "x_mean"},
          {"x", AggFn::kFirst, "x_first"},   {"nanf", AggFn::kMin, "nan_min"},
          {"nanf", AggFn::kMax, "nan_max"},  {"s", AggFn::kFirst, "s_first"}};
}

// The grouping battery on `t` for 1-, 2- and 3-column keys, a float key
// and a near-unique key: GroupByAggregate with every aggregate, GroupIndex
// and Unique, each at 1-4 threads. With `short_list`, a 1-column, the
// 3-column and the near-unique key, which keeps the over-200K-row table
// affordable under TSan.
void CheckGrouping(const TablePtr& t, bool short_list,
                   const std::string& label) {
  const std::vector<std::vector<std::string>> key_sets =
      short_list ? std::vector<std::vector<std::string>>{{"g"},
                                                         {"f", "s", "d"},
                                                         {"u"}}
                 : std::vector<std::vector<std::string>>{
                       {"g"}, {"f"}, {"s", "g"}, {"f", "s", "d"}, {"u"}};
  const std::vector<AggSpec> aggs = AllAggs();
  for (const std::vector<std::string>& keys : key_sets) {
    const std::vector<RefColumn> want_agg = ReferenceGroupBy(*t, keys, aggs);
    const testing::RefGroups want = ReferenceGroups(*t, Indices(*t, keys));
    for (int threads = 1; threads <= kMaxThreads; ++threads) {
      ScopedNumThreads scope(threads);
      const std::string what = label + " keys=" + Join(keys) + " @" +
                               std::to_string(threads) + " threads";
      auto agg = t->GroupByAggregate(keys, aggs);
      ASSERT_TRUE(agg.ok()) << what << ": " << agg.status();
      ExpectCells(**agg, want_agg, what + ": GroupByAggregate");

      std::vector<int64_t> gid;
      auto groups = t->GroupIndex(keys, &gid);
      ASSERT_TRUE(groups.ok()) << what << ": " << groups.status();
      EXPECT_EQ(*groups, static_cast<int64_t>(want.first.size())) << what;
      EXPECT_EQ(gid, want.row_group) << what << ": GroupIndex";

      auto uniq = t->Unique(keys);
      ASSERT_TRUE(uniq.ok()) << what << ": " << uniq.status();
      ExpectGathered(**uniq, *t, want.first, what + ": Unique");
    }
  }
}

// TopK on tie-heavy, special-float, string, wrapping-int and plain float
// columns (with `short_list`, the special-float and string ones), both
// directions, every k of the contract, at 1-4 threads.
void CheckTopK(const TablePtr& t, bool short_list, const std::string& label) {
  const int64_t n = t->NumRows();
  std::vector<int64_t> ks;
  for (const int64_t k : {int64_t{0}, int64_t{1}, int64_t{7}, n - 1, n,
                          n + 1}) {
    if (k >= 0 && std::find(ks.begin(), ks.end(), k) == ks.end()) {
      ks.push_back(k);
    }
  }
  const std::vector<std::string> cols =
      short_list ? std::vector<std::string>{"f", "s"}
                 : std::vector<std::string>{"g", "f", "s", "w", "x"};
  for (const std::string& col : cols) {
    const int ci = *t->FindColumn(col);
    for (const bool ascending : {false, true}) {
      // Every k's answer is a prefix of the whole stable order.
      const std::vector<int64_t> order = ReferenceTopK(*t, ci, n, ascending);
      for (const int64_t k : ks) {
        const std::vector<int64_t> want(
            order.begin(), order.begin() + std::min(k, n));
        for (int threads = 1; threads <= kMaxThreads; ++threads) {
          ScopedNumThreads scope(threads);
          const std::string what =
              label + " TopK(" + col + ", " + std::to_string(k) +
              (ascending ? ", asc" : ", desc") + ") @" +
              std::to_string(threads) + " threads";
          auto top = t->TopK(col, k, ascending);
          ASSERT_TRUE(top.ok()) << what << ": " << top.status();
          ExpectGathered(**top, *t, want, what);
        }
      }
    }
  }
}

// Row r of t as the oracle's key tuple: every cell's RefGroupCell.
std::vector<std::string> RowKey(const Table& t, int64_t r) {
  std::vector<std::string> key;
  for (int c = 0; c < t.num_columns(); ++c) {
    key.push_back(RefGroupCell(t, c, r));
  }
  return key;
}

// UnionTables of two tie-heavy projections: the distinct rows of a then
// b, by first occurrence. `b` may live in another pool.
void CheckUnion(const TablePtr& a, const TablePtr& b, const std::string& label) {
  std::vector<std::pair<const Table*, int64_t>> want;
  std::set<std::vector<std::string>> seen;
  for (const Table* t : {a.get(), b.get()}) {
    for (int64_t r = 0; r < t->NumRows(); ++r) {
      if (seen.insert(RowKey(*t, r)).second) want.push_back({t, r});
    }
  }
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    const std::string what =
        label + " UnionTables @" + std::to_string(threads) + " threads";
    auto u = Table::UnionTables(*a, *b);
    ASSERT_TRUE(u.ok()) << what << ": " << u.status();
    ASSERT_EQ((*u)->NumRows(), static_cast<int64_t>(want.size())) << what;
    int64_t bad = -1;
    for (int64_t i = 0; i < (*u)->NumRows() && bad < 0; ++i) {
      if (!SameRow(**u, i, *want[i].first, want[i].second)) bad = i;
    }
    EXPECT_EQ(bad, -1) << what << ": differs first at row " << bad;
  }
}

// IntersectTables and MinusTables of the same projections: a's distinct
// rows that do, and do not, occur in b, by first occurrence in a, each
// with a's row id.
void CheckIntersectAndMinus(const TablePtr& a, const TablePtr& b,
                            const std::string& label) {
  std::set<std::vector<std::string>> in_b, seen;
  for (int64_t r = 0; r < b->NumRows(); ++r) in_b.insert(RowKey(*b, r));
  std::vector<int64_t> want_intersect, want_minus;
  for (int64_t r = 0; r < a->NumRows(); ++r) {
    std::vector<std::string> key = RowKey(*a, r);
    const bool hit = in_b.count(key) > 0;
    if (seen.insert(std::move(key)).second) {
      (hit ? want_intersect : want_minus).push_back(r);
    }
  }
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    const std::string at = " @" + std::to_string(threads) + " threads";
    auto i = Table::IntersectTables(*a, *b);
    ASSERT_TRUE(i.ok()) << label << at << ": " << i.status();
    ExpectGathered(**i, *a, want_intersect, label + " IntersectTables" + at);
    auto m = Table::MinusTables(*a, *b);
    ASSERT_TRUE(m.ok()) << label << at << ": " << m.status();
    ExpectGathered(**m, *a, want_minus, label + " MinusTables" + at);
  }
}

class GroupingStress : public ::testing::TestWithParam<int64_t> {};

TEST_P(GroupingStress, MatchesOracleAtEveryThreadCount) {
  const int64_t n = GetParam();
  auto pool = std::make_shared<StringPool>();
  const TablePtr plain = MakeTable(n, 2100 + n, pool);
  auto encoded = std::make_shared<Table>(*plain);
  const int64_t encoded_cols = encoded->EncodeColumns();
  if (n >= kCutoff) {
    // s, f, d (dictionary) and w (frame of reference) at least.
    EXPECT_GE(encoded_cols, 4);
  }
  for (const auto& [t, label] :
       {std::pair{plain, std::string("plain")},
        std::pair{TablePtr(encoded), std::string("encoded")}}) {
    const std::string tag = label + " n=" + std::to_string(n);
    const bool short_list = n > 2 * kCutoff;
    CheckGrouping(t, short_list, tag);
    CheckTopK(t, short_list, tag);
  }

  // Set operations: a is a projection with every fifth row dropped, so
  // its row ids differ from its positions, plain and encoded; b shares
  // a's pool, then lives in its own (strings re-interned).
  const std::vector<std::string> cols = {"g", "s", "f"};
  const TablePtr a_plain = (*plain->Project(cols))->SelectRows(
      [](const Table&, int64_t r) { return r % 5 != 4; });
  auto a_encoded = std::make_shared<Table>(*a_plain);
  const int64_t a_encoded_cols = a_encoded->EncodeColumns();
  if (n >= kCutoff) {
    EXPECT_GE(a_encoded_cols, 2);  // s and f (dictionary) at least.
  }
  const TablePtr b_same = *MakeTable(n / 2 + 1, 7700 + n, pool)->Project(cols);
  const TablePtr b_other =
      *MakeTable(n / 2 + 1, 7700 + n, std::make_shared<StringPool>())
           ->Project(cols);
  for (const auto& [a, a_label] :
       {std::pair{a_plain, std::string("plain")},
        std::pair{TablePtr(a_encoded), std::string("encoded")}}) {
    for (const auto& [b, b_label] :
         {std::pair{b_same, std::string("same pool")},
          std::pair{b_other, std::string("other pool")}}) {
      const std::string tag =
          a_label + " a, " + b_label + " n=" + std::to_string(n);
      CheckUnion(a, b, tag);
      CheckIntersectAndMinus(a, b, tag);
    }
  }
}

// Cases are named by row count: tests/CMakeLists.txt runs the kLarge case
// as its own ctest entry by that name.
INSTANTIATE_TEST_SUITE_P(Sizes, GroupingStress,
                         ::testing::Values(int64_t{0}, int64_t{1},
                                           kCutoff - 1, kCutoff, kCutoff + 1,
                                           kLarge),
                         ::testing::PrintToStringParamName());

// Wrap-around, all-NaN and mean edge cases on a small hand-built table,
// spelled out rather than left to the generator.
TEST(GroupingEdgeCases, IntSumWrapsAllNanMinMaxAndMean) {
  const int64_t big = std::numeric_limits<int64_t>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Schema schema{{"k", ColumnType::kInt},
                {"v", ColumnType::kInt},
                {"f", ColumnType::kFloat}};
  TablePtr t = Table::Create(std::move(schema));
  t->AppendRow({int64_t{1}, big, nan}).Abort("row");
  t->AppendRow({int64_t{2}, int64_t{3}, 1.5}).Abort("row");
  t->AppendRow({int64_t{1}, int64_t{2}, nan}).Abort("row");
  t->AppendRow({int64_t{2}, int64_t{-4}, -0.0}).Abort("row");
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    auto out = t->GroupByAggregate(
        {"k"}, {{"v", AggFn::kSum, "sum"},
                {"v", AggFn::kMean, "mean"},
                {"f", AggFn::kMin, "lo"},
                {"f", AggFn::kMax, "hi"},
                {"f", AggFn::kMean, "fmean"}});
    ASSERT_TRUE(out.ok()) << out.status();
    const Table& o = **out;
    ASSERT_EQ(o.NumRows(), 2);
    // big + 2 wraps to INT64_MIN + 1.
    EXPECT_EQ(o.column(1).GetInt(0), std::numeric_limits<int64_t>::min() + 1);
    EXPECT_EQ(o.column(1).GetInt(1), -1);
    EXPECT_EQ(o.column(2).GetFloat(0),
              (static_cast<double>(big) + 2.0) / 2.0);
    EXPECT_EQ(o.column(2).GetFloat(1), -0.5);
    // A group of NaNs keeps min's and max's start values.
    EXPECT_EQ(o.column(3).GetFloat(0), inf);
    EXPECT_EQ(o.column(4).GetFloat(0), -inf);
    EXPECT_TRUE(std::isnan(o.column(5).GetFloat(0)));
    EXPECT_EQ(o.column(3).GetFloat(1), 0.0);
    EXPECT_EQ(o.column(4).GetFloat(1), 1.5);
    EXPECT_EQ(o.column(5).GetFloat(1), 0.75);
  }
}

}  // namespace
}  // namespace ringo
