// Order-preserving key normalization: maps table column values onto
// uint64 keys whose unsigned order equals RowComparator's order, so the
// sort-driven operators (OrderBy, NextK, set ops) can run the radix kernel
// (util/radix_sort.h) instead of an indirect comparison per element, and
// TopK can select on the same keys without sorting every row.
//
// Normalization rules (DESIGN.md "Sort kernels"):
//   * int64  → sign-bit flip (radix::Int64Key);
//   * float  → total-order bits with -0.0 collapsed onto +0.0
//              (radix::FloatKey);
//   * string → byte-order rank of the interned pool id: the pool's
//              distinct strings are sorted once by bytes and each id keyed
//              by its rank, so key order equals byte order even though
//              pool ids are assigned in interning order;
//   * descending columns → bitwise complement of the key.
//
// Kernel selection: the radix path handles one or two key columns of any
// scalar type; three or more key columns fall back to the comparison
// ParallelSort through RowComparator (as does radix::SetEnabled(false)).
// Both paths produce bit-identical permutations — the radix sort is
// stable over an ascending-row input, which is exactly the comparison
// path's physical-position tiebreak.
//
// Grouping (GroupIndex, GroupByAggregate, Unique) needs equality, not
// order, and does not sort: GroupRows below is its one kernel.
#ifndef RINGO_TABLE_KEY_NORMALIZE_H_
#define RINGO_TABLE_KEY_NORMALIZE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/table.h"
#include "util/radix_sort.h"

namespace ringo {
namespace internal {

// Byte-order ranks of every interned string: ranks[id] is the position of
// id's bytes in the lexicographic order of the pool's distinct strings.
// O(P log P) comparison sort over the P distinct strings. Uncached
// reference implementation kept for parity tests; the sort operators go
// through StringPool::ByteOrderRanks(), which memoizes the result behind
// the pool's version counter.
std::vector<uint32_t> ByteOrderRanks(const StringPool& pool);

// Calls fn(key_of) once, where key_of(i) is row i's order-preserving key
// of column `ci`, complemented when !ascending. For callers that read each
// key once on the fly instead of materializing all of them.
template <typename Fn>
void WithNormalizedKey(const Table& t, int ci, bool ascending, Fn&& fn) {
  const Column& c = t.column(ci);
  const uint64_t flip = ascending ? 0 : ~uint64_t{0};
  switch (c.type()) {
    case ColumnType::kInt:
      fn([&c, flip](int64_t i) { return radix::Int64Key(c.GetInt(i)) ^ flip; });
      return;
    case ColumnType::kFloat:
      fn([&c, flip](int64_t i) {
        return radix::FloatKey(c.GetFloat(i)) ^ flip;
      });
      return;
    case ColumnType::kString: {
      // Cached on the pool behind its version counter: a script of keyed
      // sorts over one table re-sorts the distinct strings once, not once
      // per sort.
      const std::shared_ptr<const std::vector<uint32_t>> ranks =
          t.pool()->ByteOrderRanks();
      const uint32_t* const rank = ranks->data();
      fn([&c, flip, rank](int64_t i) {
        return uint64_t{rank[c.GetStr(i)]} ^ flip;
      });
      return;
    }
  }
}

// Fills keys[0, NumRows) with order-preserving uint64 keys for column
// `ci`; complements them when !ascending.
void NormalizedColumnKeys(const Table& t, int ci, bool ascending,
                          uint64_t* keys);

// Sorts a row permutation of `t` by the normalized keys of `cols` (in
// RowComparator order, physical position breaking ties), using the radix
// kernel. Returns false — leaving the outputs untouched — when the radix
// path does not apply (disabled, or more than two key columns); callers
// then run the comparison path.
//
// On success fills `perm` and, when `new_run` is non-null, sets
// (*new_run)[i] = 1 iff sorted position i starts a new run of rows that
// are distinct on the first `run_prefix_cols` columns (default: all of
// them). NextK passes run_prefix_cols = 1 to get group boundaries from a
// (group, order) sort.
bool SortedPermByKeys(const Table& t, const std::vector<int>& cols,
                      const std::vector<bool>& ascending,
                      std::vector<int64_t>* perm,
                      std::vector<uint8_t>* new_run = nullptr,
                      int run_prefix_cols = -1);

// The groups of `t`'s rows over key columns `cols` (table/group_by.cc):
// rows with equal cells in every key column form one group, ints by
// value, floats with all NaNs equal and -0.0 equal to +0.0, strings by
// bytes. Groups are numbered densely by first occurrence, so `first` is
// ascending.
struct RowGroups {
  std::vector<int64_t> first;  // Each group's first row.
  std::vector<int64_t> count;  // Each group's number of rows.
};
// Also fills (*row_group)[r] with row r's group when row_group is
// non-null. The same at every thread count.
RowGroups GroupRows(const Table& t, const std::vector<int>& cols,
                    std::vector<int64_t>* row_group);

}  // namespace internal
}  // namespace ringo

#endif  // RINGO_TABLE_KEY_NORMALIZE_H_
