// Table: Ringo's native column-store relational table (§2.3).
//
// Key properties from the paper:
//   * column-based store — graph-construction workloads iterate columns;
//   * every row carries a persistent unique identifier, assigned once and
//     preserved by in-place operations, so records remain trackable through
//     complex pipelines;
//   * operations come in in-place flavors (select) and copying flavors
//     (join always builds a new table object);
//   * graph-specific operators SimJoin and NextK beyond the relational core.
//
// All operations return Status/Result and leave the table untouched on
// error. Heavy loops are OpenMP-parallel, and operator outputs are sized
// without a zero fill (Column::ResizeForOverwrite) before the parallel
// pass that writes every cell.
#ifndef RINGO_TABLE_TABLE_H_
#define RINGO_TABLE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "storage/string_pool.h"
#include "table/column.h"
#include "table/schema.h"
#include "util/result.h"

namespace ringo {

class Table;
using TablePtr = std::shared_ptr<Table>;

class JoinBuild;  // table/join_build.h — reusable hash-join build side.
using JoinBuildPtr = std::shared_ptr<const JoinBuild>;

// A dynamically typed cell value used at API boundaries (appends,
// predicates). Hot loops never touch Value; operations resolve it to a
// typed constant once up front.
using Value = std::variant<int64_t, double, std::string>;

enum class CmpOp : char { kEq, kNe, kLt, kLe, kGt, kGe };

// One parsed leaf comparison "col <op> literal" of the query language's
// select predicate (parsing lives in core/engine.h, shared with tests).
struct ParsedPredicate {
  std::string column;
  CmpOp op;
  Value value;
};

// Compound predicate in disjunctive normal form: an OR of AND-groups of
// leaf comparisons. "a = 1 and b > 2 or c = 3" parses as {{a=1, b>2},
// {c=3}} — `and` binds tighter than `or`; the language has no parentheses.
struct PredicateExpr {
  std::vector<std::vector<ParsedPredicate>> disjuncts;
};

enum class AggFn : char { kCount, kSum, kMin, kMax, kMean, kFirst };

struct AggSpec {
  std::string column;       // Input column (ignored for kCount).
  AggFn fn;
  std::string output_name;  // Name of the result column.
};

enum class DistanceMetric : char { kL1, kL2, kLInf };

class Table {
 public:
  // Creates an empty table. Tables sharing a StringPool compare and join
  // string columns by id; a fresh pool is created when none is given.
  static TablePtr Create(Schema schema,
                         std::shared_ptr<StringPool> pool = nullptr);

  Table(Schema schema, std::shared_ptr<StringPool> pool);

  // ---------------------------------------------------------------- shape
  const Schema& schema() const { return schema_; }
  int64_t NumRows() const { return num_rows_; }
  int num_columns() const { return schema_.num_columns(); }
  const std::shared_ptr<StringPool>& pool() const { return pool_; }

  const Column& column(int i) const { return cols_[i]; }
  Column& mutable_column(int i) { return cols_[i]; }
  Result<int> FindColumn(std::string_view name) const {
    return schema_.FindColumn(name);
  }

  // Persistent row identifier of physical row `row`.
  int64_t RowId(int64_t row) const { return row_ids_[row]; }
  const Column::IntVec& row_ids() const { return row_ids_; }

  // ---------------------------------------------------------------- build
  void ReserveRows(int64_t n);

  // Appends one row; values must match the schema arity and types (int is
  // accepted where float is expected). Strings are interned.
  Status AppendRow(const std::vector<Value>& values);

  // Bulk-append raw typed data: the caller fills columns directly via
  // mutable_column() and then seals the rows, which assigns row ids
  // (consecutive, in parallel). All columns must have size
  // NumRows() + added.
  Status SealAppendedRows(int64_t added);

  // -------------------------------------------------------------- queries
  // Reads a cell as a dynamically typed value (strings resolved to bytes).
  Value GetValue(int64_t row, int col) const;
  // Formats a cell for display.
  std::string FormatCell(int64_t row, int col) const;
  // Renders up to max_rows rows as an aligned text table (for examples).
  std::string ToString(int64_t max_rows = 10) const;

  // --------------------------------------------------------------- select
  // Every select runs in two steps on all cores. The predicate evaluates
  // to one 0/1 flag per row; then the flags compact into the ascending
  // keep list of matching rows: each of NumThreads() contiguous parts
  // counts its matches, an exclusive prefix sum turns the counts into
  // write offsets, and each part writes its rows into the presized list.
  // Small tables (internal::kParallelRangeCutoff rows or fewer) run both
  // steps on the calling thread. The keep list, and so every output, is
  // the same at every thread count.
  //
  // Keeps rows where `col <op> value`; in place (the paper's "select in
  // place" benchmark, Table 4). Row ids of surviving rows are preserved.
  // In place means the table object is kept: each column in turn (then
  // the row ids) is gathered into fresh storage, so the temporary is one
  // column's kept rows, not a second table. Keeping at least half the
  // rows, the fresh storage replaces the column's; keeping fewer, the
  // kept rows are copied back and the column keeps its capacity
  // (internal::CompactCells in column.h).
  Status SelectInPlace(std::string_view col, CmpOp op, const Value& value);
  // Copying variant.
  Result<TablePtr> Select(std::string_view col, CmpOp op,
                          const Value& value) const;

  // The ascending physical row indices where `col <op> value` holds — the
  // keep-set Select gathers. Exposed so fused pipelines (the query
  // planner's Select→ToGraph pushdown) can consume the predicate without
  // materializing the filtered table.
  Result<std::vector<int64_t>> MatchingRows(std::string_view col, CmpOp op,
                                            const Value& value) const;

  // Compound (DNF) variants: a row survives when every leaf of at least one
  // AND-group holds. Leaves evaluate to parallel flag vectors that are
  // combined element-wise, so the cost is one column scan per leaf.
  Status SelectInPlace(const PredicateExpr& pred);
  Result<TablePtr> Select(const PredicateExpr& pred) const;
  Result<std::vector<int64_t>> MatchingRows(const PredicateExpr& pred) const;

  // General row-predicate select (copying). The predicate must be safe to
  // call concurrently.
  TablePtr SelectRows(
      const std::function<bool(const Table&, int64_t)>& pred) const;
  void SelectRowsInPlace(
      const std::function<bool(const Table&, int64_t)>& pred);

  // -------------------------------------------------------------- project
  // New table with the given columns (row ids preserved).
  Result<TablePtr> Project(const std::vector<std::string>& cols) const;

  Status RenameColumn(std::string_view from, std::string to) {
    return schema_.RenameColumn(from, std::move(to));
  }

  // ---------------------------------------------------------------- order
  // New table sorted by the given columns (each ascending or descending);
  // stable; row ids preserved (permuted).
  Result<TablePtr> OrderBy(const std::vector<std::string>& cols,
                           const std::vector<bool>& ascending = {}) const;

  // --------------------------------------------------------------- unique
  // New table with the first row of every distinct combination of `cols`
  // (all columns kept, row ids preserved). Order: first occurrences in
  // original row order. Distinct as in GroupByAggregate: one hash pass,
  // no sort.
  Result<TablePtr> Unique(const std::vector<std::string>& cols) const;

  // ----------------------------------------------------------------- join
  // Hash equi-join: new table with left columns then right columns; name
  // collisions are suffixed "-1" (left) and "-2" (right), matching the
  // paper's QA example. With keep_provenance, appends int columns "_lrow"
  // and "_rrow" holding the source tables' persistent row ids.
  static Result<TablePtr> Join(const Table& left, const Table& right,
                               std::string_view left_col,
                               std::string_view right_col,
                               bool keep_provenance = false);

  // Multi-column equi-join: rows match when every key column pair is
  // equal. Same output layout and semantics as Join. Key columns must
  // agree in type pairwise; hash collisions on composite keys are resolved
  // by exact comparison.
  static Result<TablePtr> JoinMulti(const Table& left, const Table& right,
                                    const std::vector<std::string>& left_cols,
                                    const std::vector<std::string>& right_cols,
                                    bool keep_provenance = false);

  // Precomputes JoinMulti's build side — the chained hash table over
  // `right`'s key columns, with strings normalized into `key_pool` — so
  // several probes against one (right table, key columns) pair share one
  // build. JoinMulti itself is BuildJoin + JoinWithBuild.
  static Result<JoinBuildPtr> BuildJoin(
      const TablePtr& right, const std::vector<std::string>& right_cols,
      std::shared_ptr<StringPool> key_pool);

  // Probes a prepared build side with `left`. Identical output (schema,
  // rows, order) to JoinMulti(left, *build.right(), left_cols,
  // build.key_cols()). `left`'s string keys must normalize into the
  // build's key pool — within one engine session every table shares it.
  static Result<TablePtr> JoinWithBuild(const Table& left,
                                        const std::vector<std::string>& left_cols,
                                        const JoinBuild& build,
                                        bool keep_provenance = false);

  // -------------------------------------------------------------- groupby
  // Groups by `group_cols` and computes aggregates. Result: group columns
  // (each group's first row) followed by one column per AggSpec. Groups
  // appear in order of first occurrence.
  //
  // Rows group when every key cell is equal: ints by value, floats with
  // all NaNs equal and -0.0 equal to +0.0, strings by bytes. Grouping
  // hashes the keys in one sequential pass over the rows (keys extracted
  // in parallel; table/group_by.cc), so it costs O(rows) and no sort.
  // Aggregates fold each group's cells in row order: float sums round as
  // a sequential scan does, int sums wrap as uint64, min and max skip NaN
  // (a group of NaNs reports +inf and -inf), mean is the float sum over
  // the count, first is the group's first row. Identical at every thread
  // count.
  Result<TablePtr> GroupByAggregate(const std::vector<std::string>& group_cols,
                                    const std::vector<AggSpec>& aggs) const;

  // Assigns each row its group index (dense, by first occurrence) over
  // `group_cols`, with GroupByAggregate's grouping; returns the per-row
  // group ids through `out` and the number of groups.
  Result<int64_t> GroupIndex(const std::vector<std::string>& group_cols,
                             std::vector<int64_t>* out) const;

  // -------------------------------------------------------------- set ops
  // Set semantics over whole rows; schemas must match by name and type.
  // Union returns the distinct rows of a ∪ b; Intersect the distinct rows
  // of a present in b; Minus the distinct rows of a absent from b. Rows
  // are equal when every cell is, with GroupByAggregate's key equality:
  // ints by value, floats with all NaNs equal and -0.0 equal to +0.0,
  // strings by bytes, across pools too. Each runs ConcatTables(a, b) and
  // the grouping kernel over every column: O(|a| + |b|), no sort. Row
  // order follows first occurrence in a (then b for Union). Intersect and
  // Minus keep a's row ids; Union's row ids are its rows' positions in a
  // then b. When b has its own pool, all three intern b's strings into
  // a's pool, which can grow.
  static Result<TablePtr> UnionTables(const Table& a, const Table& b);
  static Result<TablePtr> IntersectTables(const Table& a, const Table& b);
  static Result<TablePtr> MinusTables(const Table& a, const Table& b);

  // -------------------------------------------------- graph-construction
  // SimJoin (§2.3): joins a left row to a right row whenever the distance
  // between their numeric key vectors is strictly below `threshold`.
  // Columns listed must be numeric (int or float). Output layout matches
  // Join. Efficient paths: sort-merge sweep for 1 dimension, grid hashing
  // for k dimensions.
  static Result<TablePtr> SimJoin(const Table& left, const Table& right,
                                  const std::vector<std::string>& left_cols,
                                  const std::vector<std::string>& right_cols,
                                  double threshold,
                                  DistanceMetric metric = DistanceMetric::kL2);

  // NextK (§2.3): orders rows within each group by `order_col` and joins
  // every record to its up-to-k immediate successors (predecessor →
  // successor pairs). Output: all columns suffixed "-1" (predecessor) and
  // "-2" (successor).
  static Result<TablePtr> NextK(const Table& t, std::string_view group_col,
                                std::string_view order_col, int k);

  // ------------------------------------------------------------ utilities
  // New table with the first n physical rows (row ids preserved).
  TablePtr Head(int64_t n) const;

  // The k extreme rows by one column (descending by default — "top"), in
  // sorted order with position tiebreaks: exactly the first k rows of
  // OrderBy + Head, NaN counting as largest. Bounded selection instead of
  // a sort: each of RangeParts(n) contiguous parts keeps its best k
  // candidates, reading every row's sort key on the fly, and the parts'
  // survivors are radix-sorted. O(n + k x parts) time and O(k x parts)
  // memory: no n-row key or permutation array unless k is near n.
  Result<TablePtr> TopK(std::string_view col, int64_t k,
                        bool ascending = false) const;

  // Uniform sample of min(k, NumRows()) rows without replacement, kept in
  // original row order (row ids preserved). Deterministic per seed.
  Result<TablePtr> Sample(int64_t k, uint64_t seed = 1) const;

  // Bag concatenation (UNION ALL): all rows of a then all rows of b;
  // schemas must match by name and type. Fresh row ids. Strings are
  // interned into a's pool.
  static Result<TablePtr> ConcatTables(const Table& a, const Table& b);

  // Appends a column computed per row. The function receives this table
  // and the row index and must be safe for concurrent calls.
  Status AddIntColumn(std::string name,
                      const std::function<int64_t(const Table&, int64_t)>& fn);
  Status AddFloatColumn(std::string name,
                        const std::function<double(const Table&, int64_t)>& fn);
  Status AddStringColumn(
      std::string name,
      const std::function<std::string(const Table&, int64_t)>& fn);

  // Converts a column between numeric types in place (int ↔ float;
  // float→int truncates). String casts are rejected.
  Status CastColumn(std::string_view name, ColumnType to);

  // ----------------------------------------------------------------- misc
  int64_t MemoryUsageBytes() const;

  // Compacts columns whose observed stats justify a dictionary or
  // frame-of-reference layout (DESIGN.md §14); access stays transparent
  // through the Column API. Returns the number of columns encoded and
  // refreshes the mem/table_bytes + mem/bytes_per_row gauges. Requires
  // exclusive access (like any mutation).
  int64_t EncodeColumns();
  // Refreshes mem/table_bytes and mem/bytes_per_row from current usage.
  void PublishMemGauges() const;

  // Deep structural equality of contents (schema, row count, cell values in
  // physical order; row ids are NOT compared).
  bool ContentEquals(const Table& other) const;

 private:
  friend class TableOps;
  // table_io.cc — restores row_ids_/next_row_id_ when loading .rtb files.
  friend class TableBinAccess;

  // Compacts all columns + row ids to the given ascending row subset, one
  // column at a time.
  void CompactKeep(const std::vector<int64_t>& keep);
  // Gathers rows into a fresh table (row ids preserved).
  TablePtr GatherRows(const std::vector<int64_t>& idx) const;
  // IntersectTables (in_b) or MinusTables (!in_b) past the schema check.
  static Result<TablePtr> DistinctRowsOfA(const Table& a, const Table& b,
                                          bool in_b);
  // Evaluates a typed single-column comparison into `keep` (ascending).
  Status EvalPredicate(std::string_view col, CmpOp op, const Value& value,
                       std::vector<int64_t>* keep) const;
  // Same, but into per-row 0/1 flags (the combiner for compound selects).
  Status EvalPredicateFlags(std::string_view col, CmpOp op, const Value& value,
                            DefaultInitVector<uint8_t>* flags) const;
  // DNF evaluation: per-leaf flags ANDed within a group, ORed across.
  Status EvalPredicateExpr(const PredicateExpr& pred,
                           std::vector<int64_t>* keep) const;

  Schema schema_;
  std::shared_ptr<StringPool> pool_;
  std::vector<Column> cols_;
  Column::IntVec row_ids_;
  int64_t num_rows_ = 0;
  int64_t next_row_id_ = 0;
};

}  // namespace ringo

#endif  // RINGO_TABLE_TABLE_H_
