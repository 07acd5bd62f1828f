// Utility table operations: Head, TopK, bag concatenation, computed
// columns and numeric casts — the small data-cleaning verbs the paper's
// iterative exploration workflow (Fig. 2) leans on between the heavyweight
// operators.
#include <algorithm>
#include <numeric>

#include "table/key_normalize.h"
#include "table/row_compare.h"
#include "table/table.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

TablePtr Table::Head(int64_t n) const {
  n = std::min(n, num_rows_);
  std::vector<int64_t> idx(std::max<int64_t>(n, 0));
  std::iota(idx.begin(), idx.end(), 0);
  return GatherRows(idx);
}

Result<TablePtr> Table::TopK(std::string_view col, int64_t k,
                             bool ascending) const {
  if (k < 0) {
    return Status::InvalidArgument("TopK requires k >= 0");
  }
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(col));
  const std::vector<int> cols{ci};
  const int64_t take = std::min(k, num_rows_);
  trace::Span span("Table/TopK");
  span.AddAttr("rows", num_rows_);
  span.AddAttr("k", take);
  // Radix path: full distribution sort of (key, row) pairs, then keep the
  // first `take` — a handful of linear passes beats the O(n log k) heap
  // partial sort well before n reaches table sizes that matter.
  std::vector<int64_t> perm;
  if (internal::SortedPermByKeys(*this, cols, {ascending}, &perm)) {
    perm.resize(take);
    return GatherRows(perm);
  }
  RowComparator cmp(this, this, cols, cols, {ascending});
  perm.resize(num_rows_);
  std::iota(perm.begin(), perm.end(), 0);
  auto less = [&](int64_t a, int64_t b) {
    const int c = cmp.Compare(a, b);
    return c != 0 ? c < 0 : a < b;
  };
  std::partial_sort(perm.begin(), perm.begin() + take, perm.end(), less);
  perm.resize(take);
  return GatherRows(perm);
}

Result<TablePtr> Table::Sample(int64_t k, uint64_t seed) const {
  if (k < 0) {
    return Status::InvalidArgument("Sample requires k >= 0");
  }
  const int64_t take = std::min(k, num_rows_);
  // Partial Fisher–Yates over the row indices.
  std::vector<int64_t> idx(num_rows_);
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  for (int64_t i = 0; i < take; ++i) {
    std::swap(idx[i], idx[rng.UniformInt(i, num_rows_ - 1)]);
  }
  idx.resize(take);
  std::sort(idx.begin(), idx.end());  // Keep original row order.
  return GatherRows(idx);
}

Result<TablePtr> Table::ConcatTables(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::TypeMismatch("concat on incompatible schemas: [" +
                                a.schema().ToString() + "] vs [" +
                                b.schema().ToString() + "]");
  }
  TablePtr out = Create(a.schema(), a.pool());
  const bool same_pool = a.pool() == b.pool();
  for (int c = 0; c < a.num_columns(); ++c) {
    Column& dst = out->mutable_column(c);
    dst.AppendColumn(a.column(c));
    const Column& src = b.column(c);
    if (src.type() == ColumnType::kString && !same_pool) {
      for (int64_t r = 0; r < b.NumRows(); ++r) {
        dst.AppendStr(a.pool()->GetOrAdd(b.pool()->Get(src.GetStr(r))));
      }
    } else {
      dst.AppendColumn(src);
    }
  }
  RINGO_RETURN_NOT_OK(out->SealAppendedRows(a.NumRows() + b.NumRows()));
  return out;
}

Status Table::AddIntColumn(
    std::string name, const std::function<int64_t(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kInt));
  cols_.emplace_back(ColumnType::kInt);
  Column& c = cols_.back();
  c.ResizeForOverwrite(num_rows_);
  ParallelFor(0, num_rows_, [&](int64_t i) { c.SetInt(i, fn(*this, i)); });
  return Status::OK();
}

Status Table::AddFloatColumn(
    std::string name, const std::function<double(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kFloat));
  cols_.emplace_back(ColumnType::kFloat);
  Column& c = cols_.back();
  c.ResizeForOverwrite(num_rows_);
  ParallelFor(0, num_rows_, [&](int64_t i) { c.SetFloat(i, fn(*this, i)); });
  return Status::OK();
}

Status Table::AddStringColumn(
    std::string name,
    const std::function<std::string(const Table&, int64_t)>& fn) {
  RINGO_RETURN_NOT_OK(schema_.AddColumn(name, ColumnType::kString));
  cols_.emplace_back(ColumnType::kString);
  Column& c = cols_.back();
  c.ResizeForOverwrite(num_rows_);
  // Interning serializes on the pool mutex; keep this loop sequential.
  for (int64_t i = 0; i < num_rows_; ++i) {
    c.SetStr(i, pool_->GetOrAdd(fn(*this, i)));
  }
  return Status::OK();
}

Status Table::CastColumn(std::string_view name, ColumnType to) {
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(name));
  const ColumnType from = schema_.column(ci).type;
  if (from == to) return Status::OK();
  if (from == ColumnType::kString || to == ColumnType::kString) {
    return Status::TypeMismatch("CastColumn supports numeric casts only");
  }
  Column fresh(to);
  fresh.ResizeForOverwrite(num_rows_);
  const Column& old = cols_[ci];
  if (to == ColumnType::kFloat) {
    ParallelFor(0, num_rows_, [&](int64_t i) {
      fresh.SetFloat(i, static_cast<double>(old.GetInt(i)));
    });
  } else {
    ParallelFor(0, num_rows_, [&](int64_t i) {
      fresh.SetInt(i, static_cast<int64_t>(old.GetFloat(i)));
    });
  }
  cols_[ci] = std::move(fresh);
  // Patch the schema entry's type (name unchanged).
  Schema rebuilt;
  for (int c = 0; c < schema_.num_columns(); ++c) {
    RINGO_RETURN_NOT_OK(rebuilt.AddColumn(
        schema_.column(c).name, c == ci ? to : schema_.column(c).type));
  }
  schema_ = std::move(rebuilt);
  return Status::OK();
}

}  // namespace ringo
