// Set operations over whole rows (§2.3): Union, Intersect, Minus with set
// (distinct) semantics, on the first-occurrence grouping kernel
// (table/group_by.cc) instead of a sort. Each concatenates a and b
// (ConcatTables interns b's strings into a's pool, so strings compare by
// bytes across pools) and groups the concatenation by every column, so
// rows are equal as GroupByAggregate's keys are: all NaNs equal, -0.0
// equal to +0.0. Union keeps every group's first row. Intersect and Minus
// keep the first row of each group that a opens and that does, or does
// not, also hold a row of b, gathered from a: a's row order and row ids.
#include <numeric>

#include "table/key_normalize.h"
#include "table/table.h"
#include "util/trace.h"

namespace ringo {

namespace {

Status CheckSameSchema(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::TypeMismatch("set operation on incompatible schemas: [" +
                                a.schema().ToString() + "] vs [" +
                                b.schema().ToString() + "]");
  }
  return Status::OK();
}

}  // namespace

Result<TablePtr> Table::UnionTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Union");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  RINGO_ASSIGN_OR_RETURN(TablePtr cat, ConcatTables(a, b));
  std::vector<std::string> names;
  for (const ColumnSpec& c : a.schema().columns()) names.push_back(c.name);
  return cat->Unique(names);
}

Result<TablePtr> Table::DistinctRowsOfA(const Table& a, const Table& b,
                                        bool in_b) {
  RINGO_ASSIGN_OR_RETURN(TablePtr cat, ConcatTables(a, b));
  std::vector<int> cols(cat->num_columns());
  std::iota(cols.begin(), cols.end(), 0);
  std::vector<int64_t> gid;
  const internal::RowGroups g = internal::GroupRows(*cat, cols, &gid);
  std::vector<uint8_t> has_b(g.first.size(), 0);
  for (int64_t r = a.NumRows(); r < cat->NumRows(); ++r) has_b[gid[r]] = 1;
  // Groups are numbered by first occurrence, so the groups a opens come
  // first, in a's row order.
  std::vector<int64_t> keep;
  for (size_t k = 0; k < g.first.size() && g.first[k] < a.NumRows(); ++k) {
    if ((has_b[k] != 0) == in_b) keep.push_back(g.first[k]);
  }
  return a.GatherRows(keep);
}

Result<TablePtr> Table::IntersectTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Intersect");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  return DistinctRowsOfA(a, b, /*in_b=*/true);
}

Result<TablePtr> Table::MinusTables(const Table& a, const Table& b) {
  RINGO_RETURN_NOT_OK(CheckSameSchema(a, b));
  trace::Span span("Table/Minus");
  span.AddAttr("left_rows", a.NumRows());
  span.AddAttr("right_rows", b.NumRows());
  return DistinctRowsOfA(a, b, /*in_b=*/false);
}

}  // namespace ringo
