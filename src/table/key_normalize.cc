#include "table/key_normalize.h"

#include <numeric>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace ringo {
namespace internal {

std::vector<uint32_t> ByteOrderRanks(const StringPool& pool) {
  const int64_t p = pool.size();
  std::vector<StringPool::Id> ids(p);
  std::iota(ids.begin(), ids.end(), StringPool::Id{0});
  // Distinct strings have distinct bytes, so this order is total and the
  // (unstable) parallel sort is deterministic.
  ParallelSort(ids.begin(), ids.end(),
               [&pool](StringPool::Id a, StringPool::Id b) {
                 return pool.Get(a) < pool.Get(b);
               });
  std::vector<uint32_t> ranks(p);
  for (int64_t i = 0; i < p; ++i) {
    ranks[ids[i]] = static_cast<uint32_t>(i);
  }
  return ranks;
}

void NormalizedColumnKeys(const Table& t, int ci, bool ascending,
                          uint64_t* keys) {
  WithNormalizedKey(t, ci, ascending, [&](const auto& key_of) {
    ParallelFor(0, t.NumRows(), [&](int64_t i) { keys[i] = key_of(i); });
  });
}

bool SortedPermByKeys(const Table& t, const std::vector<int>& cols,
                      const std::vector<bool>& ascending,
                      std::vector<int64_t>* perm,
                      std::vector<uint8_t>* new_run, int run_prefix_cols) {
  if (!radix::Enabled()) return false;
  const int k = static_cast<int>(cols.size());
  if (k < 1 || k > 2) return false;
  if (run_prefix_cols < 0) run_prefix_cols = k;
  RINGO_DCHECK(run_prefix_cols >= 1 && run_prefix_cols <= k);
  const int64_t n = t.NumRows();
  const auto asc = [&](int c) {
    return c < static_cast<int>(ascending.size()) ? !!ascending[c] : true;
  };

  perm->resize(n);
  if (new_run != nullptr) new_run->assign(n, 0);

  if (k == 1) {
    std::vector<uint64_t> keys(n);
    NormalizedColumnKeys(t, cols[0], asc(0), keys.data());
    std::vector<KeyRow> recs(n);
    ParallelFor(0, n, [&](int64_t i) { recs[i] = {keys[i], i}; });
    RadixSortKeyRows(recs.data(), n);
    ParallelFor(0, n, [&](int64_t i) { (*perm)[i] = recs[i].row; });
    if (new_run != nullptr) {
      ParallelFor(0, n, [&](int64_t i) {
        (*new_run)[i] = (i == 0 || recs[i].key != recs[i - 1].key) ? 1 : 0;
      });
    }
    return true;
  }

  std::vector<uint64_t> k0(n), k1(n);
  NormalizedColumnKeys(t, cols[0], asc(0), k0.data());
  NormalizedColumnKeys(t, cols[1], asc(1), k1.data());
  std::vector<KeyRow2> recs(n);
  ParallelFor(0, n, [&](int64_t i) { recs[i] = {k0[i], k1[i], i}; });
  RadixSortKeyRows2(recs.data(), n);
  ParallelFor(0, n, [&](int64_t i) { (*perm)[i] = recs[i].row; });
  if (new_run != nullptr) {
    const bool full = run_prefix_cols == 2;
    ParallelFor(0, n, [&](int64_t i) {
      (*new_run)[i] = (i == 0 || recs[i].hi != recs[i - 1].hi ||
                       (full && recs[i].lo != recs[i - 1].lo))
                          ? 1
                          : 0;
    });
  }
  return true;
}

}  // namespace internal
}  // namespace ringo
