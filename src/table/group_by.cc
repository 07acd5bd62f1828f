// Group & aggregate (§2.3). Grouping is sort-based: a permutation of rows
// is parallel-sorted by the group key (with a physical-position tiebreak so
// the result is deterministic), runs of equal keys become groups, and
// groups are numbered by first occurrence so output order is stable.
#include <limits>
#include <numeric>

#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

Result<int64_t> Table::GroupIndex(const std::vector<std::string>& group_cols,
                                  std::vector<int64_t>* out) const {
  std::vector<int> idx;
  RINGO_RETURN_NOT_OK(ResolveColumns(*this, group_cols, &idx));

  std::vector<int64_t> perm;
  std::vector<uint8_t> new_run;
  // Radix path: sort normalized (key, row) pairs and read run boundaries
  // off the keys; comparison fallback for 3+ group columns.
  if (!internal::SortedPermByKeys(*this, idx, {}, &perm, &new_run)) {
    RowComparator cmp(this, this, idx, idx);
    perm.resize(num_rows_);
    std::iota(perm.begin(), perm.end(), 0);
    ParallelSort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
      const int c = cmp.Compare(a, b);
      return c != 0 ? c < 0 : a < b;
    });
    new_run.assign(num_rows_, 0);
    for (int64_t i = 0; i < num_rows_; ++i) {
      new_run[i] = (i == 0 || !cmp.Equal(perm[i - 1], perm[i])) ? 1 : 0;
    }
  }

  // Runs of equal keys → provisional group ids in sorted order.
  std::vector<int64_t> run_id(num_rows_);
  std::vector<int64_t> run_first;  // Physical row of each run's first member
                                   // (which is also its smallest position,
                                   // thanks to the position tiebreak).
  for (int64_t i = 0; i < num_rows_; ++i) {
    if (new_run[i]) {
      run_first.push_back(perm[i]);
    }
    run_id[perm[i]] = static_cast<int64_t>(run_first.size()) - 1;
  }

  // Renumber runs by first occurrence in the original row order.
  const int64_t groups = static_cast<int64_t>(run_first.size());
  std::vector<int64_t> order(groups);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return run_first[a] < run_first[b]; });
  std::vector<int64_t> renumber(groups);
  for (int64_t g = 0; g < groups; ++g) renumber[order[g]] = g;

  out->resize(num_rows_);
  ParallelFor(0, num_rows_,
              [&](int64_t i) { (*out)[i] = renumber[run_id[i]]; });
  return groups;
}

namespace {

// Running aggregate state for one (group, agg) cell.
struct AggState {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t isum = 0;  // Exact accumulators for int columns.
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  int64_t count = 0;
  int64_t first_row = -1;
};

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

  std::vector<int64_t> gid;
  RINGO_ASSIGN_OR_RETURN(const int64_t groups, GroupIndex(group_cols, &gid));
  span.AddAttr("groups", groups);

  // One pass over rows per aggregate column (column-at-a-time).
  std::vector<std::vector<AggState>> state(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    state[a].assign(groups, AggState{});
    std::vector<AggState>& st = state[a];
    const int ci = aidx[a];
    for (int64_t r = 0; r < num_rows_; ++r) {
      AggState& s = st[gid[r]];
      ++s.count;
      if (s.first_row < 0) s.first_row = r;
      if (ci >= 0 && schema_.column(ci).type == ColumnType::kInt) {
        const int64_t v = cols_[ci].GetInt(r);
        // Two's-complement wrap on overflow (defined via uint64), matching
        // what callers summing near-INT64_MAX values have always observed.
        s.isum = static_cast<int64_t>(static_cast<uint64_t>(s.isum) +
                                      static_cast<uint64_t>(v));
        if (v < s.imin) s.imin = v;
        if (v > s.imax) s.imax = v;
        s.sum += static_cast<double>(v);  // For kMean.
      } else if (ci >= 0 && schema_.column(ci).type == ColumnType::kFloat) {
        const double v = cols_[ci].GetFloat(r);
        s.sum += v;
        if (v < s.min) s.min = v;
        if (v > s.max) s.max = v;
      }
    }
  }
  // Representative (first) row of each group for the key columns.
  std::vector<int64_t> rep(groups, -1);
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (rep[gid[r]] < 0) rep[gid[r]] = r;
  }

  // Output schema: group columns, then aggregates.
  Schema out_schema;
  for (size_t g = 0; g < group_cols.size(); ++g) {
    RINGO_RETURN_NOT_OK(out_schema.AddColumn(
        group_cols[g], schema_.column(gidx[g]).type));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const ColumnType in_type =
        aidx[a] >= 0 ? schema_.column(aidx[a]).type : ColumnType::kInt;
    RINGO_RETURN_NOT_OK(out_schema.AddColumn(aggs[a].output_name,
                                             AggOutputType(aggs[a], in_type)));
  }

  TablePtr out = Create(std::move(out_schema), pool_);
  // Key columns via gather of representatives.
  for (size_t g = 0; g < group_cols.size(); ++g) {
    out->mutable_column(static_cast<int>(g)) = cols_[gidx[g]].Gather(rep);
  }
  // Aggregate columns.
  for (size_t a = 0; a < aggs.size(); ++a) {
    Column& dst = out->mutable_column(static_cast<int>(group_cols.size() + a));
    dst.ResizeForOverwrite(groups);
    const std::vector<AggState>& st = state[a];
    const int ci = aidx[a];
    const ColumnType in_type =
        ci >= 0 ? schema_.column(ci).type : ColumnType::kInt;
    for (int64_t g = 0; g < groups; ++g) {
      const AggState& s = st[g];
      switch (aggs[a].fn) {
        case AggFn::kCount: dst.SetInt(g, s.count); break;
        case AggFn::kMean: dst.SetFloat(g, s.sum / s.count); break;
        case AggFn::kSum:
          if (in_type == ColumnType::kInt) {
            dst.SetInt(g, s.isum);
          } else {
            dst.SetFloat(g, s.sum);
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          if (in_type == ColumnType::kInt) {
            dst.SetInt(g, aggs[a].fn == AggFn::kMin ? s.imin : s.imax);
          } else {
            dst.SetFloat(g, aggs[a].fn == AggFn::kMin ? s.min : s.max);
          }
          break;
        case AggFn::kFirst:
          switch (in_type) {
            case ColumnType::kInt: dst.SetInt(g, cols_[ci].GetInt(s.first_row)); break;
            case ColumnType::kFloat: dst.SetFloat(g, cols_[ci].GetFloat(s.first_row)); break;
            case ColumnType::kString: dst.SetStr(g, cols_[ci].GetStr(s.first_row)); break;
          }
          break;
      }
    }
  }
  RINGO_RETURN_NOT_OK(out->SealAppendedRows(groups));
  return out;
}

}  // namespace ringo
