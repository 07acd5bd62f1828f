// Utility table operations: Head, TopK, bag concatenation, computed
// columns and numeric casts — the small data-cleaning verbs the paper's
// iterative exploration workflow (Fig. 2) leans on between the heavyweight
// operators.
#include <algorithm>
#include <numeric>

#include "table/key_normalize.h"
#include "table/table.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

TablePtr Table::Head(int64_t n) const {
  n = std::min(n, num_rows_);
  std::vector<int64_t> idx(std::max<int64_t>(n, 0));
  std::iota(idx.begin(), idx.end(), 0);
  return GatherRows(idx);
}

namespace {

// (key, row) order: the order of a stable sort by key.
bool KeyRowLess(const KeyRow& a, const KeyRow& b) {
  return a.key != b.key ? a.key < b.key : a.row < b.row;
}

// The best k (least by KeyRowLess) of rows [lo, hi) in row order, keyed
// by key_of(row). Candidates collect in row order until there are 2k;
// then the k-th least is selected (std::nth_element on a scratch copy),
// the rest are dropped in place, and from then on a row is a candidate
// only if its key is below the k-th's, since a later row with an equal
// key ranks after it. Each trim costs O(k) and follows at least k new
// candidates, so a part costs O(rows) with O(k) memory.
template <typename KeyOf>
std::vector<KeyRow> LeastRows(const KeyOf& key_of, int64_t lo, int64_t hi,
                              int64_t k) {
  const int64_t cap = 2 * k;
  std::vector<KeyRow> cand, scratch;
  cand.reserve(std::min(cap, hi - lo));
  bool trimmed = false;
  uint64_t cutoff = 0;
  for (int64_t i = lo; i < hi; ++i) {
    const uint64_t key = key_of(i);
    if (trimmed && key >= cutoff) continue;
    cand.push_back({key, i});
    if (static_cast<int64_t>(cand.size()) == cap && i + 1 < hi) {
      scratch.assign(cand.begin(), cand.end());
      std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                       scratch.end(), KeyRowLess);
      const KeyRow kth = scratch[k - 1];
      // (key, row) pairs are distinct: exactly k are not above the k-th.
      cand.erase(std::remove_if(cand.begin(), cand.end(),
                                [&](const KeyRow& c) {
                                  return KeyRowLess(kth, c);
                                }),
                 cand.end());
      trimmed = true;
      cutoff = kth.key;
    }
  }
  return cand;
}

}  // namespace

Result<TablePtr> Table::TopK(std::string_view col, int64_t k,
                             bool ascending) const {
  if (k < 0) {
    return Status::InvalidArgument("TopK requires k >= 0");
  }
  RINGO_ASSIGN_OR_RETURN(const int ci, schema_.FindColumn(col));
  const int64_t take = std::min(k, num_rows_);
  trace::Span span("Table/TopK");
  span.AddAttr("rows", num_rows_);
  span.AddAttr("k", take);
  if (take == 0) return GatherRows({});
  // Each contiguous part keeps its best `take` candidates; concatenated
  // in part order they are in row order, so the stable radix sort by key
  // puts them in (key, row) order, the first `take` of a stable sort.
  const int parts = RangeParts(num_rows_);
  const std::vector<int64_t> bounds = PartitionRange(num_rows_, parts);
  std::vector<std::vector<KeyRow>> part_best(parts);
  internal::WithNormalizedKey(*this, ci, ascending, [&](const auto& key_of) {
    ParallelFor(0, parts, [&](int64_t p) {
      part_best[p] = LeastRows(key_of, bounds[p], bounds[p + 1], take);
    });
  });
  std::vector<int64_t> offsets(parts);
  for (int p = 0; p < parts; ++p) {
    offsets[p] = static_cast<int64_t>(part_best[p].size());
  }
  DefaultInitVector<KeyRow> best(ExclusivePrefixSum(offsets));
  ParallelFor(0, parts, [&](int64_t p) {
    std::copy(part_best[p].begin(), part_best[p].end(),
              best.begin() + offsets[p]);
  });
  part_best.clear();
  RadixSortKeyRows(best.data(), static_cast<int64_t>(best.size()));
  std::vector<int64_t> rows(take);
  ParallelForRange(0, take, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) rows[i] = best[i].row;
  });
  return GatherRows(rows);
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
