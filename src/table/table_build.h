// Internal helpers shared by the binary table operators (Join, SimJoin,
// NextK): suffixed output schemas and parallel row materialization.
#ifndef RINGO_TABLE_TABLE_BUILD_H_
#define RINGO_TABLE_TABLE_BUILD_H_

#include <span>
#include <vector>

#include "storage/flat_hash_map.h"
#include "table/table.h"
#include "util/parallel.h"

namespace ringo {
namespace internal {

// Appends `self`'s columns to `schema`, suffixing names that collide with
// `other` ("-1" for the left operand, "-2" for the right — the paper's QA
// demo yields UserId-1 / UserId-2 this way).
inline Status AppendSuffixedColumns(const Schema& self, const Schema& other,
                                    const char* suffix, Schema* schema) {
  for (const ColumnSpec& c : self.columns()) {
    std::string name = c.name;
    if (other.HasColumn(name)) name += suffix;
    RINGO_RETURN_NOT_OK(schema->AddColumn(std::move(name), c.type));
  }
  return Status::OK();
}

// Copies `src`'s columns gathered at `rows` into `out` starting at column
// `first_out_col`, translating string ids into `out_pool` when the pools
// differ. Parallel on the fast paths. Every path writes every cell, so the
// output columns are sized without a zero fill.
inline void EmitColumns(const Table& src, std::span<const int64_t> rows,
                        const std::shared_ptr<StringPool>& out_pool,
                        Table* out, int first_out_col) {
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int c = 0; c < src.num_columns(); ++c) {
    Column& dst = out->mutable_column(first_out_col + c);
    const Column& col = src.column(c);
    dst.ResizeForOverwrite(n);
    if (col.type() == ColumnType::kString && src.pool() != out_pool) {
      // Cross-pool: translate each distinct id once, then map.
      FlatHashMap<StringPool::Id, StringPool::Id> cache;
      for (int64_t i = 0; i < n; ++i) {
        const StringPool::Id id = col.GetStr(rows[i]);
        StringPool::Id* m = cache.Find(id);
        if (m == nullptr) {
          m = cache.Insert(id, out_pool->GetOrAdd(src.pool()->Get(id))).first;
        }
        dst.SetStr(i, *m);
      }
    } else {
      auto emit = [&](auto* out, const auto& get) {
        ParallelForRange(0, n, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) out[i] = get(rows[i]);
        });
      };
      switch (col.type()) {
        case ColumnType::kInt:
          emit(dst.ints().data(), [&](int64_t r) { return col.GetInt(r); });
          break;
        case ColumnType::kFloat:
          emit(dst.floats().data(),
               [&](int64_t r) { return col.GetFloat(r); });
          break;
        case ColumnType::kString:
          emit(dst.strs().data(), [&](int64_t r) { return col.GetStr(r); });
          break;
      }
    }
  }
}

// Builds the standard two-sided output table (left columns then right
// columns, collisions suffixed) from matched row index pairs.
inline Result<TablePtr> BuildPairedOutput(const Table& left,
                                          const Table& right,
                                          const std::vector<int64_t>& lrows,
                                          const std::vector<int64_t>& rrows) {
  Schema out_schema;
  RINGO_RETURN_NOT_OK(
      AppendSuffixedColumns(left.schema(), right.schema(), "-1", &out_schema));
  RINGO_RETURN_NOT_OK(
      AppendSuffixedColumns(right.schema(), left.schema(), "-2", &out_schema));
  TablePtr out = Table::Create(std::move(out_schema), left.pool());
  EmitColumns(left, lrows, left.pool(), out.get(), 0);
  EmitColumns(right, rrows, left.pool(), out.get(), left.num_columns());
  RINGO_RETURN_NOT_OK(
      out->SealAppendedRows(static_cast<int64_t>(lrows.size())));
  return out;
}

}  // namespace internal
}  // namespace ringo

#endif  // RINGO_TABLE_TABLE_BUILD_H_
