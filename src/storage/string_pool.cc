#include "storage/string_pool.h"

#include <numeric>

#include "storage/flat_hash_map.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace ringo {

StringPool::StringPool() {
  offsets_.push_back(0);
  slots_.assign(64, kInvalidId);
}

uint64_t StringPool::Hash(std::string_view s) {
  // FNV-1a, finalized with the SplitMix64 mixer for probe dispersion.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return internal::MixHash(h);
}

StringPool::Id StringPool::FindLocked(std::string_view s,
                                      uint64_t hash) const {
  const int64_t mask = static_cast<int64_t>(slots_.size()) - 1;
  int64_t i = static_cast<int64_t>(hash) & mask;
  while (slots_[i] != kInvalidId) {
    const Id id = slots_[i];
    const std::string_view candidate(buf_.data() + offsets_[id],
                                     offsets_[id + 1] - offsets_[id]);
    if (candidate == s) return id;
    i = (i + 1) & mask;
  }
  return kInvalidId;
}

void StringPool::RehashLocked(int64_t new_cap) {
  std::vector<Id> fresh(new_cap, kInvalidId);
  const int64_t mask = new_cap - 1;
  for (Id id : slots_) {
    if (id == kInvalidId) continue;
    const std::string_view s(buf_.data() + offsets_[id],
                             offsets_[id + 1] - offsets_[id]);
    int64_t i = static_cast<int64_t>(Hash(s)) & mask;
    while (fresh[i] != kInvalidId) i = (i + 1) & mask;
    fresh[i] = id;
  }
  slots_ = std::move(fresh);
}

StringPool::Id StringPool::GetOrAddLocked(std::string_view s,
                                          uint64_t hash) {
  Id id = FindLocked(s, hash);
  if (id != kInvalidId) return id;

  id = static_cast<Id>(size());
  RINGO_CHECK_GE(id, 0) << "StringPool overflow (2^31 strings)";
  buf_.insert(buf_.end(), s.begin(), s.end());
  offsets_.push_back(static_cast<int64_t>(buf_.size()));

  if ((size() + 1) * 10 > static_cast<int64_t>(slots_.size()) * 7) {
    RehashLocked(static_cast<int64_t>(slots_.size()) * 2);
  }
  const int64_t mask = static_cast<int64_t>(slots_.size()) - 1;
  int64_t i = static_cast<int64_t>(hash) & mask;
  while (slots_[i] != kInvalidId) i = (i + 1) & mask;
  slots_[i] = id;
  return id;
}

StringPool::Id StringPool::GetOrAdd(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t before = size();
  const Id id = GetOrAddLocked(s, Hash(s));
  if (size() != before) version_.fetch_add(1, std::memory_order_release);
  return id;
}

void StringPool::InternBatch(std::span<const std::string_view> strs,
                             std::span<const uint64_t> hashes,
                             std::span<Id> ids) {
  RINGO_CHECK(hashes.size() == strs.size() && ids.size() == strs.size())
      << "InternBatch spans differ in length";
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t before = size();
  // Size the slot table for the whole batch being new: one rehash up
  // front instead of a doubling cascade that rehashes every string again.
  const int64_t want = before + static_cast<int64_t>(strs.size()) + 1;
  int64_t cap = static_cast<int64_t>(slots_.size());
  while (want * 10 > cap * 7) cap *= 2;
  if (cap != static_cast<int64_t>(slots_.size())) RehashLocked(cap);
  for (size_t i = 0; i < strs.size(); ++i) {
    ids[i] = GetOrAddLocked(strs[i], hashes[i]);
  }
  if (size() != before) version_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const std::vector<uint32_t>> StringPool::ByteOrderRanks()
    const {
  const uint64_t v = Version();
  {
    std::lock_guard<std::mutex> lock(rank_mu_);
    if (ranks_ != nullptr && ranks_version_ == v) {
      RINGO_COUNTER_ADD("string_pool/rank_cache_hit", 1);
      return ranks_;
    }
  }
  RINGO_COUNTER_ADD("string_pool/rank_cache_build", 1);
  // Build outside rank_mu_ so concurrent readers of a still-valid cache
  // are never blocked behind an O(P log P) sort.
  const int64_t p = size();
  std::vector<Id> ids(p);
  std::iota(ids.begin(), ids.end(), Id{0});
  // Distinct strings have distinct bytes, so this order is total and the
  // (unstable) parallel sort is deterministic.
  ParallelSort(ids.begin(), ids.end(),
               [this](Id a, Id b) { return Get(a) < Get(b); });
  auto ranks = std::make_shared<std::vector<uint32_t>>(p);
  for (int64_t i = 0; i < p; ++i) {
    (*ranks)[ids[i]] = static_cast<uint32_t>(i);
  }
  std::lock_guard<std::mutex> lock(rank_mu_);
  ranks_ = std::move(ranks);
  ranks_version_ = v;
  return ranks_;
}

StringPool::Id StringPool::Find(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(s, Hash(s));
}

std::string_view StringPool::Get(Id id) const {
  RINGO_DCHECK(id >= 0 && id < size());
  return std::string_view(buf_.data() + offsets_[id],
                          offsets_[id + 1] - offsets_[id]);
}

int64_t StringPool::MemoryUsageBytes() const {
  return static_cast<int64_t>(buf_.capacity() +
                              offsets_.capacity() * sizeof(int64_t) +
                              slots_.capacity() * sizeof(Id));
}

}  // namespace ringo
