// Group & aggregate (§2.3) and the first-occurrence grouping kernel behind
// GroupIndex, GroupByAggregate and Unique.
//
// Grouping hashes; it never sorts. Every key column gives each row one
// uint64 key with equal keys exactly for equal cells: an int's bits, a
// float's radix::FloatKey (all NaNs equal, -0.0 equal to +0.0) and a
// string's pool id (interning gives equal bytes one id within a pool).
// The keys are extracted in parallel; then one sequential pass over the
// rows assigns dense group ids by first occurrence through a FlatHashMap,
// recording each group's first row and row count as it goes. Composite
// keys hash their column keys, and a row joins a group only after an
// exact match of every column key against the group's first row; groups
// whose hashes collide are chained. The pass stays sequential: per-part
// maps merged in part order measured slower at 4 threads (27.6 vs 22.4 ms
// with 63K groups over LiveJournalSim's 1M edge rows, 191 vs 146 ms with a
// near-unique key). Group ids, first rows and counts are therefore the
// same at every thread count.
//
// Aggregates fold each input column over the rows in row order, one typed
// loop per aggregate, so float sums keep their row-order rounding and int
// sums their uint64 wrap.
#include <algorithm>
#include <limits>
#include <type_traits>

#include "storage/flat_hash_map.h"
#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/trace.h"

namespace ringo {
namespace internal {

namespace {

// Fills keys[0, n) with column `c`'s grouping keys (header comment).
void GroupKeys(const Column& c, int64_t n, uint64_t* keys) {
  auto fill = [&](const auto& key_of) {
    ParallelForRange(0, n, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) keys[i] = key_of(i);
    });
  };
  switch (c.type()) {
    case ColumnType::kInt:
      fill([&c](int64_t i) { return static_cast<uint64_t>(c.GetInt(i)); });
      return;
    case ColumnType::kFloat:
      fill([&c](int64_t i) { return radix::FloatKey(c.GetFloat(i)); });
      return;
    case ColumnType::kString:
      fill([&c](int64_t i) {
        return static_cast<uint64_t>(static_cast<uint32_t>(c.GetStr(i)));
      });
      return;
  }
}

}  // namespace

RowGroups GroupRows(const Table& t, const std::vector<int>& cols,
                    std::vector<int64_t>* row_group) {
  const int64_t n = t.NumRows();
  const int64_t k = static_cast<int64_t>(cols.size());
  // Column c's keys are keys[c * n, (c + 1) * n).
  DefaultInitVector<uint64_t> keys(k * n);
  for (int64_t c = 0; c < k; ++c) {
    GroupKeys(t.column(cols[c]), n, keys.data() + c * n);
  }
  // One key column is its own hash, and equal hashes mean equal keys.
  // Otherwise rows hash their column keys and matches are verified.
  const bool composite = k != 1;
  DefaultInitVector<uint64_t> hashes;
  if (composite) {
    hashes.resize(n);
    ParallelForRange(0, n, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        uint64_t h = 0;
        for (int64_t c = 0; c < k; ++c) h = MixHash(h ^ keys[c * n + i]);
        hashes[i] = h;
      }
    });
  }
  const uint64_t* const hash = composite ? hashes.data() : keys.data();
  auto same_keys = [&](int64_t a, int64_t b) {
    for (int64_t c = 0; c < k; ++c) {
      if (keys[c * n + a] != keys[c * n + b]) return false;
    }
    return true;
  };

  RowGroups g;
  FlatHashMap<uint64_t, int64_t> head;  // Hash → first group with it.
  std::vector<int64_t> next;  // Composite: next group with the same hash.
  if (row_group != nullptr) {
    row_group->clear();
    row_group->reserve(n);
  }
  for (int64_t r = 0; r < n; ++r) {
    const int64_t fresh = static_cast<int64_t>(g.first.size());
    const auto [slot, inserted] = head.Insert(hash[r], fresh);
    int64_t grp = *slot;
    if (composite && !inserted) {
      while (!same_keys(r, g.first[grp])) {
        if (next[grp] < 0) {
          next[grp] = fresh;
          grp = fresh;
          break;
        }
        grp = next[grp];
      }
    }
    if (grp == fresh) {
      g.first.push_back(r);
      g.count.push_back(0);
      if (composite) next.push_back(-1);
    }
    ++g.count[grp];
    if (row_group != nullptr) row_group->push_back(grp);
  }
  return g;
}

}  // namespace internal

Result<int64_t> Table::GroupIndex(const std::vector<std::string>& group_cols,
                                  std::vector<int64_t>* out) const {
  std::vector<int> idx;
  RINGO_RETURN_NOT_OK(ResolveColumns(*this, group_cols, &idx));
  return static_cast<int64_t>(internal::GroupRows(*this, idx, out).first.size());
}

namespace {

ColumnType AggOutputType(const AggSpec& spec, ColumnType input) {
  switch (spec.fn) {
    case AggFn::kCount: return ColumnType::kInt;
    case AggFn::kMean: return ColumnType::kFloat;
    case AggFn::kSum:
    case AggFn::kMin:
    case AggFn::kMax: return input;  // int stays int, float stays float.
    case AggFn::kFirst: return input;
  }
  return input;
}

template <typename V>
V Cell(const Column& c, int64_t r) {
  if constexpr (std::is_same_v<V, int64_t>) {
    return c.GetInt(r);
  } else {
    return c.GetFloat(r);
  }
}

template <typename V>
V* Cells(Column& c) {
  if constexpr (std::is_same_v<V, int64_t>) {
    return c.ints().data();
  } else {
    return c.floats().data();
  }
}

// acc[g] = `init` folded with step(acc, value) over group g's values of
// column `src`, the rows visited in row order.
template <typename V, typename A, typename Step>
void FoldRows(const Column& src, const std::vector<int64_t>& gid, A init,
              int64_t groups, A* acc, Step step) {
  std::fill(acc, acc + groups, init);
  const int64_t n = static_cast<int64_t>(gid.size());
  for (int64_t r = 0; r < n; ++r) step(acc[gid[r]], Cell<V>(src, r));
}

// Sum, min, max or mean of a numeric column (V = int64_t or double) per
// group. Min and max start from the extremes and NaN fails every
// comparison, so a group whose float cells are all NaN reports +inf and
// -inf.
template <typename V>
Column NumericAggregate(const Column& src, AggFn fn,
                        const std::vector<int64_t>& gid,
                        const internal::RowGroups& g) {
  const int64_t groups = static_cast<int64_t>(g.first.size());
  if (fn == AggFn::kMean) {
    Column out(ColumnType::kFloat);
    out.ResizeForOverwrite(groups);
    double* mean = out.floats().data();
    FoldRows<V>(src, gid, 0.0, groups, mean,
                [](double& s, V v) { s += static_cast<double>(v); });
    for (int64_t i = 0; i < groups; ++i) {
      mean[i] /= static_cast<double>(g.count[i]);
    }
    return out;
  }
  using Lim = std::numeric_limits<V>;
  Column out(src.type());
  out.ResizeForOverwrite(groups);
  V* acc = Cells<V>(out);
  switch (fn) {
    case AggFn::kSum:
      if constexpr (std::is_same_v<V, int64_t>) {
        // Two's-complement wrap on overflow (defined via uint64).
        FoldRows<V>(src, gid, V{0}, groups, acc, [](V& s, V v) {
          s = static_cast<V>(static_cast<uint64_t>(s) +
                             static_cast<uint64_t>(v));
        });
      } else {
        FoldRows<V>(src, gid, V{0}, groups, acc, [](V& s, V v) { s += v; });
      }
      break;
    case AggFn::kMin:
      FoldRows<V>(src, gid, Lim::has_infinity ? Lim::infinity() : Lim::max(),
                  groups, acc, [](V& m, V v) {
                    if (v < m) m = v;
                  });
      break;
    case AggFn::kMax:
      FoldRows<V>(src, gid,
                  Lim::has_infinity ? -Lim::infinity() : Lim::lowest(), groups,
                  acc, [](V& m, V v) {
                    if (v > m) m = v;
                  });
      break;
    default:
      RINGO_CHECK(false) << "not a numeric fold";
  }
  return out;
}

}  // namespace

Result<TablePtr> Table::GroupByAggregate(
    const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs) const {
  std::vector<int> gidx;
  RINGO_RETURN_NOT_OK(ResolveColumns(*this, group_cols, &gidx));

  trace::Span span("Table/GroupBy");
  span.AddAttr("rows", num_rows_);
  span.AddAttr("group_columns", static_cast<int64_t>(gidx.size()));
  span.AddAttr("aggregates", static_cast<int64_t>(aggs.size()));

  // Validate aggregate specs.
  std::vector<int> aidx(aggs.size(), -1);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFn::kCount) continue;
    RINGO_ASSIGN_OR_RETURN(aidx[a], FindColumn(aggs[a].column));
    const ColumnType t = schema_.column(aidx[a]).type;
    if (t == ColumnType::kString && aggs[a].fn != AggFn::kFirst) {
      return Status::TypeMismatch(
          "aggregate over string column '" + aggs[a].column +
          "' supports only First/Count");
    }
  }

  // Per-row group ids only when some aggregate folds over the rows.
  bool folds = false;
  for (const AggSpec& spec : aggs) {
    folds |= spec.fn != AggFn::kCount && spec.fn != AggFn::kFirst;
  }
  std::vector<int64_t> gid;
  const internal::RowGroups g =
      internal::GroupRows(*this, gidx, folds ? &gid : nullptr);
  const int64_t groups = static_cast<int64_t>(g.first.size());
  span.AddAttr("groups", groups);

  // Output schema: group columns, then aggregates.
  Schema out_schema;
  for (size_t c = 0; c < group_cols.size(); ++c) {
    RINGO_RETURN_NOT_OK(out_schema.AddColumn(
        group_cols[c], schema_.column(gidx[c]).type));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const ColumnType in_type =
        aidx[a] >= 0 ? schema_.column(aidx[a]).type : ColumnType::kInt;
    RINGO_RETURN_NOT_OK(out_schema.AddColumn(aggs[a].output_name,
                                             AggOutputType(aggs[a], in_type)));
  }

  TablePtr out = Create(std::move(out_schema), pool_);
  // Key columns: each group's first row.
  for (size_t c = 0; c < group_cols.size(); ++c) {
    out->mutable_column(static_cast<int>(c)) = cols_[gidx[c]].Gather(g.first);
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    Column& dst = out->mutable_column(static_cast<int>(group_cols.size() + a));
    const AggFn fn = aggs[a].fn;
    if (fn == AggFn::kCount) {
      dst.ResizeForOverwrite(groups);
      std::copy(g.count.begin(), g.count.end(), dst.ints().begin());
    } else if (fn == AggFn::kFirst) {
      dst = cols_[aidx[a]].Gather(g.first);
    } else if (cols_[aidx[a]].type() == ColumnType::kInt) {
      dst = NumericAggregate<int64_t>(cols_[aidx[a]], fn, gid, g);
    } else {
      dst = NumericAggregate<double>(cols_[aidx[a]], fn, gid, g);
    }
  }
  RINGO_RETURN_NOT_OK(out->SealAppendedRows(groups));
  return out;
}

}  // namespace ringo
