// Stress: parallel selection and output materialization against the
// row-by-row select oracle in test_support.h, at 1 to 4 threads.
//
//   * Select, SelectInPlace and MatchingRows, both the single-leaf and the
//     predicate-expression overloads, on seeded random tables with int,
//     float (NaN, ±0, ±inf included) and string columns, plain and
//     dictionary / frame-of-reference encoded. Sizes 0, 1, the
//     sequential cutoff ±1 and over 200K rows; selectivities none, all,
//     alternate and random; single leaves and AND/OR groups. Outputs must
//     equal the oracle cell for cell (float bit patterns) and in row ids.
//     The selects run on a reversed copy of the generated table, so row
//     ids differ from physical positions.
//   * SelectRows and SelectRowsInPlace with general row predicates,
//     against a serial filter calling the same predicate row by row.
//   * Row ids after GatherRows (through OrderBy), after Join (fresh ids
//     and provenance columns), and after bulk appends sealed with
//     SealAppendedRows, before and after an in-place select.
//
// Under AddressSanitizer freshly sized cells hold a non-zero byte pattern
// (util/default_init.h), so a cell an operator forgot to write fails the
// comparison here instead of passing as zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
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
using testing::ReferenceSelect;
using testing::ScopedNumThreads;

constexpr int kMaxThreads = 4;
constexpr int64_t kCutoff = internal::kParallelRangeCutoff;
constexpr int64_t kLarge = 200003;

// Reference columns for n rows:
//   k    row index (int; none/all selectivity)
//   par  row index % 2 (int; alternate selectivity)
//   rnd  uniform in [0, 100) (int; random selectivity; FOR-encodable)
//   d    few distinct, widely spread ints (dictionary-encodable)
//   big  wide-range ints (stays plain)
//   f    floats from a small set with NaN, ±0 and ±inf (dictionary)
//   g    wide-range floats with ~1% NaN (stays plain)
//   s    strings from a set of 7, one of them empty (dictionary)
//   u    high-cardinality strings (stays plain)
std::vector<RefColumn> MakeRef(int64_t n, uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double fset[] = {0.0, -0.0, 0.5, -1.25, inf, -inf, nan, 3.0};
  const char* sset[] = {"alpha", "beta", "gamma", "", "delta", "eps", "zeta"};
  const int64_t dset[] = {-7000000000, -3, 0, 5, 12, 900, 1 << 30};
  Rng rng(seed);
  std::vector<RefColumn> cols = {
      {"k", ColumnType::kInt, {}, {}, {}},
      {"par", ColumnType::kInt, {}, {}, {}},
      {"rnd", ColumnType::kInt, {}, {}, {}},
      {"d", ColumnType::kInt, {}, {}, {}},
      {"big", ColumnType::kInt, {}, {}, {}},
      {"f", ColumnType::kFloat, {}, {}, {}},
      {"g", ColumnType::kFloat, {}, {}, {}},
      {"s", ColumnType::kString, {}, {}, {}},
      {"u", ColumnType::kString, {}, {}, {}},
  };
  for (int64_t i = 0; i < n; ++i) {
    cols[0].ints.push_back(i);
    cols[1].ints.push_back(i % 2);
    cols[2].ints.push_back(rng.UniformInt(0, 99));
    cols[3].ints.push_back(dset[rng.UniformInt(0, 6)]);
    cols[4].ints.push_back(rng.UniformInt(-(int64_t{1} << 60),
                                          int64_t{1} << 60));
    cols[5].floats.push_back(fset[rng.UniformInt(0, 7)]);
    cols[6].floats.push_back(rng.UniformInt(0, 99) == 0
                                 ? nan
                                 : static_cast<double>(
                                       rng.UniformInt(-1000000, 1000000)) /
                                       7.0);
    cols[7].strs.push_back(sset[rng.UniformInt(0, 6)]);
    cols[8].strs.push_back("u" + std::to_string(rng.UniformInt(0, n)));
  }
  return cols;
}

// The reference rows in reverse order: what OrderBy(k, descending) gives.
std::vector<RefColumn> Reversed(std::vector<RefColumn> cols) {
  for (RefColumn& c : cols) {
    std::reverse(c.ints.begin(), c.ints.end());
    std::reverse(c.floats.begin(), c.floats.end());
    std::reverse(c.strs.begin(), c.strs.end());
  }
  return cols;
}

TablePtr BuildTable(const std::vector<RefColumn>& cols,
                    std::shared_ptr<StringPool> pool) {
  Schema schema;
  for (const RefColumn& c : cols) {
    schema.AddColumn(c.name, c.type).Abort("BuildTable");
  }
  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  const int64_t n = static_cast<int64_t>(cols[0].ints.size());
  std::vector<Value> row(cols.size());
  for (int64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      switch (cols[c].type) {
        case ColumnType::kInt: row[c] = cols[c].ints[r]; break;
        case ColumnType::kFloat: row[c] = cols[c].floats[r]; break;
        case ColumnType::kString: row[c] = cols[c].strs[r]; break;
      }
    }
    t->AppendRow(row).Abort("BuildTable");
  }
  return t;
}

// Pool ids of every reference string cell (all tables here share one
// pool), so checks compare ids rather than bytes.
std::vector<std::vector<StringPool::Id>> RefStrIds(
    const std::vector<RefColumn>& cols, const StringPool& pool) {
  std::vector<std::vector<StringPool::Id>> ids(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    for (const std::string& str : cols[c].strs) {
      ids[c].push_back(pool.Find(str));
    }
  }
  return ids;
}

// Reference rows plus their string ids.
struct Ref {
  std::vector<RefColumn> cols;
  std::vector<std::vector<StringPool::Id>> str_ids;
};

// Checks `out` holds reference rows `rows`, in order, in the columns of
// `ref` starting at out column `first`, and that its row ids are `ids`.
// Floats compare bit for bit. Reads the outputs' plain vectors (operator
// outputs are never encoded).
void ExpectRows(const Table& out, const Ref& ref,
                const std::vector<int64_t>& rows,
                const std::vector<int64_t>& ids, int first,
                const std::string& what) {
  const int64_t n = static_cast<int64_t>(rows.size());
  ASSERT_EQ(out.NumRows(), n) << what;
  for (size_t c = 0; c < ref.cols.size(); ++c) {
    const Column& col = out.column(first + static_cast<int>(c));
    const RefColumn& rc = ref.cols[c];
    ASSERT_FALSE(col.encoded()) << what;
    int64_t bad = -1;
    switch (rc.type) {
      case ColumnType::kInt: {
        const Column::IntVec& v = col.ints();
        for (int64_t i = 0; i < n && bad < 0; ++i) {
          if (v[i] != rc.ints[rows[i]]) bad = i;
        }
        break;
      }
      case ColumnType::kFloat: {
        const Column::FloatVec& v = col.floats();
        for (int64_t i = 0; i < n && bad < 0; ++i) {
          if (std::bit_cast<uint64_t>(v[i]) !=
              std::bit_cast<uint64_t>(rc.floats[rows[i]])) {
            bad = i;
          }
        }
        break;
      }
      case ColumnType::kString: {
        const Column::StrVec& v = col.strs();
        for (int64_t i = 0; i < n && bad < 0; ++i) {
          if (v[i] != ref.str_ids[c][rows[i]]) bad = i;
        }
        break;
      }
    }
    EXPECT_EQ(bad, -1) << what << ": column '" << rc.name
                       << "' differs first at output row " << bad;
  }
  ASSERT_EQ(static_cast<int64_t>(out.row_ids().size()), n) << what;
  int64_t bad = -1;
  for (int64_t i = 0; i < n && bad < 0; ++i) {
    if (out.row_ids()[i] != ids[i]) bad = i;
  }
  EXPECT_EQ(bad, -1) << what << ": row ids differ first at row " << bad;
}

PredicateExpr Leaf(const std::string& col, CmpOp op, Value v) {
  return PredicateExpr{{{ParsedPredicate{col, op, std::move(v)}}}};
}

struct NamedPred {
  std::string name;
  PredicateExpr pred;
};

// The predicates; with `short_list`, one per selectivity plus a float,
// a string and a compound one, which keeps the over-200K-row table
// affordable under TSan.
std::vector<NamedPred> Predicates(bool short_list) {
  if (short_list) {
    return {
        {"none", Leaf("k", CmpOp::kLt, int64_t{0})},
        {"all", Leaf("k", CmpOp::kGe, int64_t{0})},
        {"alternate", Leaf("par", CmpOp::kEq, int64_t{1})},
        {"random", Leaf("rnd", CmpOp::kLt, int64_t{37})},
        {"float_nan_ne", Leaf("f", CmpOp::kNe, 0.5)},
        {"str_eq", Leaf("s", CmpOp::kEq, std::string("gamma"))},
        {"and_or",
         PredicateExpr{
             {{ParsedPredicate{"par", CmpOp::kEq, int64_t{1}},
               ParsedPredicate{"s", CmpOp::kLt, std::string("delta")}},
              {ParsedPredicate{"d", CmpOp::kLe, int64_t{0}}}}}},
    };
  }
  return {
      {"none", Leaf("k", CmpOp::kLt, int64_t{0})},
      {"all", Leaf("k", CmpOp::kGe, int64_t{0})},
      {"alternate", Leaf("par", CmpOp::kEq, int64_t{1})},
      {"random", Leaf("rnd", CmpOp::kLt, int64_t{37})},
      {"dict_int", Leaf("d", CmpOp::kNe, int64_t{12})},
      {"wide_int", Leaf("big", CmpOp::kGt, int64_t{0})},
      {"float_nan_ne", Leaf("f", CmpOp::kNe, 0.5)},
      {"float_le_int_literal", Leaf("g", CmpOp::kLe, int64_t{0})},
      {"str_eq", Leaf("s", CmpOp::kEq, std::string("gamma"))},
      {"str_absent_ne", Leaf("s", CmpOp::kNe, std::string("omega"))},
      {"str_order", Leaf("u", CmpOp::kGe, std::string("u5"))},
      {"and", PredicateExpr{{{ParsedPredicate{"par", CmpOp::kEq, int64_t{0}},
                              ParsedPredicate{"rnd", CmpOp::kGe, int64_t{50}},
                              ParsedPredicate{"f", CmpOp::kGe, 0.0}}}}},
      {"and_or",
       PredicateExpr{
           {{ParsedPredicate{"par", CmpOp::kEq, int64_t{1}},
             ParsedPredicate{"s", CmpOp::kLt, std::string("delta")}},
            {ParsedPredicate{"d", CmpOp::kLe, int64_t{0}}},
            {ParsedPredicate{"g", CmpOp::kGt, 100000.0},
             ParsedPredicate{"rnd", CmpOp::kNe, int64_t{3}}}}}},
  };
}

// Runs every select entry point for every predicate on `src` (a table
// holding reference rows `ref` with row ids `src_ids`) at 1..4 threads.
void CheckSelects(const TablePtr& src, const Ref& ref,
                  const std::vector<int64_t>& src_ids, bool short_list,
                  const std::string& label) {
  for (const NamedPred& np : Predicates(short_list)) {
    const std::vector<int64_t> want = ReferenceSelect(ref.cols, np.pred);
    std::vector<int64_t> want_ids(want.size());
    for (size_t i = 0; i < want.size(); ++i) want_ids[i] = src_ids[want[i]];
    const bool leaf =
        np.pred.disjuncts.size() == 1 && np.pred.disjuncts[0].size() == 1;
    for (int threads = 1; threads <= kMaxThreads; ++threads) {
      ScopedNumThreads scope(threads);
      const std::string what = label + " " + np.name + " @" +
                               std::to_string(threads) + " threads";
      auto rows = src->MatchingRows(np.pred);
      ASSERT_TRUE(rows.ok()) << what << ": " << rows.status();
      EXPECT_EQ(*rows, want) << what << ": MatchingRows";

      auto sel = src->Select(np.pred);
      ASSERT_TRUE(sel.ok()) << what << ": " << sel.status();
      ExpectRows(**sel, ref, want, want_ids, 0, what + ": Select");

      auto inplace = std::make_shared<Table>(*src);
      ASSERT_TRUE(inplace->SelectInPlace(np.pred).ok()) << what;
      ExpectRows(*inplace, ref, want, want_ids, 0, what + ": SelectInPlace");

      if (leaf) {
        const ParsedPredicate& l = np.pred.disjuncts[0][0];
        auto rows1 = src->MatchingRows(l.column, l.op, l.value);
        ASSERT_TRUE(rows1.ok()) << what;
        EXPECT_EQ(*rows1, want) << what << ": MatchingRows (leaf)";
        auto sel1 = src->Select(l.column, l.op, l.value);
        ASSERT_TRUE(sel1.ok()) << what;
        ExpectRows(**sel1, ref, want, want_ids, 0, what + ": Select (leaf)");
        auto inplace1 = std::make_shared<Table>(*src);
        ASSERT_TRUE(inplace1->SelectInPlace(l.column, l.op, l.value).ok());
        ExpectRows(*inplace1, ref, want, want_ids, 0,
                   what + ": SelectInPlace (leaf)");
      }
    }
  }
}

// SelectRows and SelectRowsInPlace (general row predicates) on `src` at
// 1..4 threads against a serial filter: the predicate called on every row
// in order on one thread.
void CheckRowPredicates(const TablePtr& src, const Ref& ref,
                        const std::vector<int64_t>& src_ids,
                        const std::string& label) {
  using RowPred = std::function<bool(const Table&, int64_t)>;
  const int rnd = *src->FindColumn("rnd");
  const int f = *src->FindColumn("f");
  const int s = *src->FindColumn("s");
  const std::vector<std::pair<std::string, RowPred>> preds = {
      {"rnd_mod3",
       [rnd](const Table& t, int64_t r) {
         return t.column(rnd).GetInt(r) % 3 == 0;
       }},
      {"f_nan_or_negative",
       [f](const Table& t, int64_t r) {
         const double v = t.column(f).GetFloat(r);
         return std::isnan(v) || v < 0;
       }},
      {"s_empty",
       [s](const Table& t, int64_t r) {
         return t.pool()->Get(t.column(s).GetStr(r)).empty();
       }},
  };
  for (const auto& [name, pred] : preds) {
    std::vector<int64_t> want, want_ids;
    for (int64_t r = 0; r < src->NumRows(); ++r) {
      if (pred(*src, r)) {
        want.push_back(r);
        want_ids.push_back(src_ids[r]);
      }
    }
    for (int threads = 1; threads <= kMaxThreads; ++threads) {
      ScopedNumThreads scope(threads);
      const std::string what =
          label + " " + name + " @" + std::to_string(threads) + " threads";
      ExpectRows(*src->SelectRows(pred), ref, want, want_ids, 0,
                 what + ": SelectRows");
      auto inplace = std::make_shared<Table>(*src);
      inplace->SelectRowsInPlace(pred);
      ExpectRows(*inplace, ref, want, want_ids, 0,
                 what + ": SelectRowsInPlace");
    }
  }
}

class SelectStress : public ::testing::TestWithParam<int64_t> {};

// Builds the generated table, reverses it through OrderBy (GatherRows;
// its row ids must come along), and runs the select battery on the
// reversed table, plain and with every encodable column encoded.
TEST_P(SelectStress, MatchesOracleAtEveryThreadCount) {
  const int64_t n = GetParam();
  const std::vector<RefColumn> gen = MakeRef(n, 1000 + n);
  std::vector<int64_t> all(n), rev_ids(n);
  for (int64_t i = 0; i < n; ++i) {
    all[i] = i;
    rev_ids[i] = n - 1 - i;
  }
  auto pool = std::make_shared<StringPool>();
  const TablePtr base = BuildTable(gen, pool);
  const std::vector<RefColumn> cols = Reversed(gen);
  const Ref rev{cols, RefStrIds(cols, *pool)};
  TablePtr reversed;
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    auto r = base->OrderBy({"k"}, {false});
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectRows(**r, rev, all, rev_ids, 0,
               "OrderBy @" + std::to_string(threads) + " threads");
    reversed = *r;
  }
  const bool short_list = n > 2 * kCutoff;
  CheckSelects(reversed, rev, rev_ids, short_list,
               "plain n=" + std::to_string(n));

  auto encoded = std::make_shared<Table>(*reversed);
  const int64_t encoded_cols = encoded->EncodeColumns();
  if (n >= kCutoff) {
    // rnd (FOR), d, f and s (dictionary) at least.
    EXPECT_GE(encoded_cols, 4);
  }
  CheckSelects(encoded, rev, rev_ids, short_list,
               "encoded n=" + std::to_string(n));
  CheckRowPredicates(reversed, rev, rev_ids, "plain n=" + std::to_string(n));
  CheckRowPredicates(encoded, rev, rev_ids, "encoded n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectStress,
                         ::testing::Values(int64_t{0}, int64_t{1},
                                           kCutoff - 1, kCutoff, kCutoff + 1,
                                           kLarge));

// Join output: fresh consecutive row ids, provenance columns holding the
// inputs' row ids, and left cells in left row order with the right rows of
// each left row ascending.
TEST(SelectStressJoin, RowIdsAndProvenanceAtEveryThreadCount) {
  const int64_t n = kLarge;
  auto pool = std::make_shared<StringPool>();
  const TablePtr base = BuildTable(MakeRef(n, 77), pool);
  const std::vector<RefColumn> cols = Reversed(MakeRef(n, 77));
  const Ref rev{cols, RefStrIds(cols, *pool)};
  auto reversed = base->OrderBy({"k"}, {false});
  ASSERT_TRUE(reversed.ok());
  const TablePtr left = *reversed;

  // Right side: each key of d's set 0, 1 or 2 times, plus keys that
  // match nothing; right row ids are 0..m-1.
  Schema rs{{"key", ColumnType::kInt}, {"w", ColumnType::kInt}};
  TablePtr right = Table::Create(std::move(rs), pool);
  const std::vector<int64_t> keys = {5, -3, 900, 5, 12, 77, -7000000000,
                                     900, 0, 12, 5};
  for (size_t i = 0; i < keys.size(); ++i) {
    right->AppendRow({keys[i], static_cast<int64_t>(i * 10)})
        .Abort("right");
  }

  std::vector<int64_t> want_l, want_r;
  for (int64_t l = 0; l < n; ++l) {
    for (size_t r = 0; r < keys.size(); ++r) {
      if (rev.cols[3].ints[l] == keys[r]) {
        want_l.push_back(l);
        want_r.push_back(static_cast<int64_t>(r));
      }
    }
  }
  const int64_t m = static_cast<int64_t>(want_l.size());
  std::vector<int64_t> fresh(m);
  for (int64_t i = 0; i < m; ++i) fresh[i] = i;
  const int lcols = left->num_columns();

  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    const std::string what = "join @" + std::to_string(threads) + " threads";
    auto j = Table::Join(*left, *right, "d", "key", /*keep_provenance=*/true);
    ASSERT_TRUE(j.ok()) << j.status();
    const Table& out = **j;
    ExpectRows(out, rev, want_l, fresh, 0, what);
    int64_t bad = -1;
    for (int64_t i = 0; i < m && bad < 0; ++i) {
      const bool ok =
          out.column(lcols).GetInt(i) == keys[want_r[i]] &&
          out.column(lcols + 1).GetInt(i) == want_r[i] * 10 &&
          out.column(lcols + 2).GetInt(i) == n - 1 - want_l[i] &&
          out.column(lcols + 3).GetInt(i) == want_r[i];
      if (!ok) bad = i;
    }
    EXPECT_EQ(bad, -1) << what << ": right cells or provenance differ at "
                       << bad;
  }
}

// Bulk appends: columns sized for overwrite and filled, then sealed; the
// ids run on from next_row_id across batches and across an in-place
// select that drops rows.
TEST(SelectStressSeal, RowIdsAfterBulkAppendsAtEveryThreadCount) {
  const std::vector<int64_t> batches = {0, 1, kCutoff + 1, 3, 70000};
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    ScopedNumThreads scope(threads);
    const std::string what = "seal @" + std::to_string(threads) + " threads";
    TablePtr t = Table::Create(
        Schema{{"a", ColumnType::kInt}, {"x", ColumnType::kFloat}});
    int64_t total = 0;
    std::vector<int64_t> want_ids;
    for (const int64_t added : batches) {
      for (int c = 0; c < 2; ++c) {
        t->mutable_column(c).ResizeForOverwrite(total + added);
      }
      for (int64_t i = total; i < total + added; ++i) {
        t->mutable_column(0).SetInt(i, i * 3);
        t->mutable_column(1).SetFloat(i, static_cast<double>(i) / 2);
        want_ids.push_back(i);
      }
      ASSERT_TRUE(t->SealAppendedRows(added).ok()) << what;
      total += added;
      ASSERT_EQ(t->NumRows(), total) << what;
      EXPECT_TRUE(std::equal(want_ids.begin(), want_ids.end(),
                             t->row_ids().begin(), t->row_ids().end()))
          << what << " after a batch of " << added;
    }
    // Keep all rows, then the first half; the kept ids survive, and the
    // next batch continues after the highest id ever assigned.
    const double half = static_cast<double>(total) / 4;
    ASSERT_TRUE(t->SelectInPlace("a", CmpOp::kGe, int64_t{0}).ok());
    ASSERT_TRUE(t->SelectInPlace(PredicateExpr{{{ParsedPredicate{
                                     "x", CmpOp::kLt, half}}}})
                    .ok());
    std::vector<int64_t> kept;
    for (int64_t i = 0; static_cast<double>(i) / 2 < half; ++i) {
      kept.push_back(i);
    }
    ASSERT_EQ(t->NumRows(), static_cast<int64_t>(kept.size())) << what;
    const int64_t more = kCutoff + 5;
    for (int c = 0; c < 2; ++c) {
      t->mutable_column(c).ResizeForOverwrite(t->NumRows() + more);
    }
    for (int64_t i = 0; i < more; ++i) {
      t->mutable_column(0).SetInt(t->NumRows() + i, -i);
      t->mutable_column(1).SetFloat(t->NumRows() + i, 0.0);
      kept.push_back(total + i);
    }
    ASSERT_TRUE(t->SealAppendedRows(more).ok()) << what;
    EXPECT_TRUE(std::equal(kept.begin(), kept.end(), t->row_ids().begin(),
                           t->row_ids().end()))
        << what << " after select and append";
  }
}

}  // namespace
}  // namespace ringo
