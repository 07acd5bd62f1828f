// StringPool: interned string storage for table string columns. Columns
// store fixed-width int32 ids; the bytes live once in a shared pool. This
// keeps string columns as cheap to scan, group and join as integer columns
// (comparisons are id comparisons when both sides share a pool) — the same
// design SNAP/Ringo use for their table engine (§2.3).
#ifndef RINGO_STORAGE_STRING_POOL_H_
#define RINGO_STORAGE_STRING_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ringo {

class StringPool {
 public:
  using Id = int32_t;
  static constexpr Id kInvalidId = -1;

  StringPool();

  // Returns the id of `s`, interning it first if unseen. Thread-safe.
  Id GetOrAdd(std::string_view s);

  // Batch form of GetOrAdd for bulk loaders: ids[i] receives the id of
  // strs[i], interned in index order, so the ids are exactly those of
  // calling GetOrAdd on each string in turn. hashes[i] must be
  // Hash(strs[i]); the batch takes the lock once and hashes nothing.
  // Thread-safe.
  void InternBatch(std::span<const std::string_view> strs,
                   std::span<const uint64_t> hashes, std::span<Id> ids);

  // The hash the pool probes with (FNV-1a, finalized with SplitMix64), for
  // callers that precompute InternBatch's hashes.
  static uint64_t Hash(std::string_view s);

  // Returns the id of `s`, or kInvalidId if it has never been interned.
  // Thread-safe against concurrent GetOrAdd.
  Id Find(std::string_view s) const;

  // Resolves an id to its bytes. The returned view is valid for the life of
  // the pool. Must not race with GetOrAdd (callers snapshot ids first).
  std::string_view Get(Id id) const;

  // Number of distinct interned strings.
  int64_t size() const { return static_cast<int64_t>(offsets_.size()) - 1; }

  // Monotonic version counter: bumped by every GetOrAdd or InternBatch call
  // that interns a new string (lookups of known strings leave it
  // unchanged). Thread-safe.
  uint64_t Version() const {
    return version_.load(std::memory_order_acquire);
  }

  // Byte-order ranks of every interned string: (*ranks)[id] is the
  // position of id's bytes in the lexicographic order of the pool's
  // distinct strings — the key normalization the sort-driven table
  // operators use for string columns. The result is cached behind
  // Version(): repeated keyed sorts between interns share one vector
  // (counter string_pool/rank_cache_hit) instead of re-sorting the whole
  // pool per sort; interning a new string invalidates the cache and the
  // next call rebuilds it (string_pool/rank_cache_build). Must not race
  // with GetOrAdd (same contract as Get).
  std::shared_ptr<const std::vector<uint32_t>> ByteOrderRanks() const;

  // Approximate heap usage in bytes.
  int64_t MemoryUsageBytes() const;

 private:
  Id FindLocked(std::string_view s, uint64_t hash) const;
  Id GetOrAddLocked(std::string_view s, uint64_t hash);
  void RehashLocked(int64_t new_cap);

  std::vector<char> buf_;
  std::vector<int64_t> offsets_;  // size() + 1 entries; id i spans
                                  // [offsets_[i], offsets_[i+1]).
  std::vector<Id> slots_;         // open addressing, kInvalidId = empty.
  mutable std::mutex mu_;

  std::atomic<uint64_t> version_{0};
  mutable std::mutex rank_mu_;  // Guards the two cache fields below.
  mutable std::shared_ptr<const std::vector<uint32_t>> ranks_;
  mutable uint64_t ranks_version_ = 0;  // Valid only when ranks_ != null.
};

}  // namespace ringo

#endif  // RINGO_STORAGE_STRING_POOL_H_
