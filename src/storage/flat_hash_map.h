// FlatHashMap: an open-addressing hash table with linear probing (the
// paper's §2.5 design, after Lang et al. [16]). This is the workhorse node
// table of the graph engine and the hash-join build side of the table
// engine.
//
// Properties:
//   * flat storage (one slot array), power-of-two capacity, linear probing;
//   * deletion by backward-shift, so no tombstones and probe sequences stay
//     short under churn (important for dynamic graphs, §2.2);
//   * slot-indexed access (SlotOccupied / SlotKey / SlotValue) so OpenMP
//     loops can partition the raw slot array across threads without
//     iterator synchronization;
//   * an allocator parameter for the slot arrays, std::allocator by
//     default. Only the graphs' node tables pass PoolAllocator
//     (util/default_init.h), so a released graph's slot array comes back
//     to the next build with its pages faulted in; table-side maps keep
//     the heap (DESIGN.md §20).
//
// Not thread-safe; see storage/concurrent_map.h for the concurrent variant.
#ifndef RINGO_STORAGE_FLAT_HASH_MAP_H_
#define RINGO_STORAGE_FLAT_HASH_MAP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"

namespace ringo {

namespace internal {

// Finalizing mixer (SplitMix64 tail): protects linear probing from the
// identity std::hash<integral> most standard libraries ship.
inline uint64_t MixHash(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace internal

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Alloc = std::allocator<std::pair<const K, V>>>
class FlatHashMap {
 public:
  using key_type = K;
  using mapped_type = V;

  explicit FlatHashMap(int64_t initial_capacity = 16) {
    int64_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
    full_.assign(cap, 0);
  }

  FlatHashMap(const FlatHashMap&) = default;
  FlatHashMap& operator=(const FlatHashMap&) = default;
  // Moves leave the source empty with no slots; it stays usable (lookups
  // miss, the first insert allocates), like a fresh map.
  FlatHashMap(FlatHashMap&& o) noexcept
      : slots_(std::move(o.slots_)),
        full_(std::move(o.full_)),
        size_(std::exchange(o.size_, 0)),
        stats_(std::exchange(o.stats_, ProbeStats{})) {}
  FlatHashMap& operator=(FlatHashMap&& o) noexcept {
    if (this != &o) {
      slots_ = std::move(o.slots_);
      full_ = std::move(o.full_);
      size_ = std::exchange(o.size_, 0);
      stats_ = std::exchange(o.stats_, ProbeStats{});
      o.slots_.clear();  // A moved-from vector is only "valid".
      o.full_.clear();
    }
    return *this;
  }

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Number of physical slots; stable between rehashes. Use with the Slot*
  // accessors for parallel iteration.
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }
  bool SlotOccupied(int64_t i) const { return full_[i] != 0; }
  const K& SlotKey(int64_t i) const { return slots_[i].key; }
  V& SlotValue(int64_t i) { return slots_[i].value; }
  const V& SlotValue(int64_t i) const { return slots_[i].value; }

  // Smallest power-of-two slot count whose load factor stays at or below
  // kMaxLoadNum/kMaxLoadDen for n elements. The comparison runs in 128-bit
  // arithmetic and the result is clamped to kMaxCapacity, so adversarial n
  // (where the old `want * 7 < n * 10` int64 product overflowed and
  // `want <<= 1` shifted into the sign bit, looping forever) terminates.
  static int64_t CapacityFor(int64_t n) {
    if (n <= 0) return 16;
    int64_t want = 16;
    while (want < kMaxCapacity &&
           static_cast<__int128>(want) * kMaxLoadNum <
               static_cast<__int128>(n) * kMaxLoadDen) {
      want <<= 1;
    }
    return want;
  }

  // Reserves capacity for at least n elements without rehashing (beyond
  // the one pre-sizing rehash this call may itself perform, which is NOT
  // counted in GrowRehashes).
  void Reserve(int64_t n) {
    const int64_t want = CapacityFor(n);
    if (want > capacity()) Rehash(want);
  }

  void Clear() {
    std::fill(full_.begin(), full_.end(), uint8_t{0});
    size_ = 0;
  }

  // Inserts (key, value) if absent; returns {pointer-to-value, inserted}.
  std::pair<V*, bool> Insert(const K& key, V value) {
    MaybeGrow();
    int64_t i = FindSlotCounted(key);
    if (full_[i]) return {&slots_[i].value, false};
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    full_[i] = 1;
    ++size_;
    return {&slots_[i].value, true};
  }

  // operator[]-style access: default-constructs the value if absent.
  V& GetOrInsert(const K& key) {
    MaybeGrow();
    int64_t i = FindSlotCounted(key);
    if (!full_[i]) {
      slots_[i].key = key;
      slots_[i].value = V{};
      full_[i] = 1;
      ++size_;
    }
    return slots_[i].value;
  }

  // Returns the value pointer, or nullptr if absent.
  V* Find(const K& key) {
    if (size_ == 0) return nullptr;
    const int64_t i = FindSlot(key);
    return full_[i] ? &slots_[i].value : nullptr;
  }
  const V* Find(const K& key) const {
    if (size_ == 0) return nullptr;
    const int64_t i = FindSlot(key);
    return full_[i] ? &slots_[i].value : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Removes key if present; returns whether a removal happened. Uses
  // backward-shift deletion to keep probe chains compact.
  bool Erase(const K& key) {
    if (size_ == 0) return false;
    int64_t i = FindSlotCounted(key);
    if (!full_[i]) return false;
    const int64_t mask = capacity() - 1;
    full_[i] = 0;
    slots_[i].value = V{};  // Release held resources promptly.
    --size_;
    int64_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!full_[j]) break;
      const int64_t ideal = IdealSlot(slots_[j].key);
      // Slot j may move back to i unless its ideal position lies cyclically
      // within (i, j].
      if (((j - ideal) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        full_[i] = 1;
        full_[j] = 0;
        slots_[j].value = V{};
        i = j;
      }
    }
    return true;
  }

  // Applies fn(key, value) to every element (sequential).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int64_t i = 0; i < capacity(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (int64_t i = 0; i < capacity(); ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

  // Collects all keys (unordered).
  std::vector<K> Keys() const {
    std::vector<K> keys;
    keys.reserve(size_);
    ForEach([&](const K& k, const V&) { keys.push_back(k); });
    return keys;
  }

  // Approximate heap usage in bytes of the table structure itself (element
  // payloads that own heap memory are not followed).
  int64_t MemoryUsageBytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(Slot) + full_.size());
  }

  // ------------------------------------------------------ instrumentation
  // Probe/rehash counters for the observability layer (DESIGN.md §8).
  // Counted only on the mutating paths (Insert / GetOrInsert / Erase),
  // which are single-threaded by contract — the const Find path stays
  // side-effect free so concurrent readers (conversion fill phase) remain
  // race-free. A correctly pre-sized build (Reserve before inserts, e.g.
  // the hash-join build side) reports GrowRehashes() == 0.
  struct ProbeStats {
    int64_t probes = 0;        // Mutating-path slot searches.
    int64_t probe_steps = 0;   // Linear-probe advances beyond the ideal slot.
    int64_t grow_rehashes = 0; // Rehashes forced by load-factor growth.
  };
  const ProbeStats& stats() const { return stats_; }
  int64_t GrowRehashes() const { return stats_.grow_rehashes; }
  void ResetStats() { stats_ = ProbeStats{}; }

 private:
  struct Slot {
    K key{};
    V value{};
  };
  template <typename T>
  using Vec = std::vector<
      T, typename std::allocator_traits<Alloc>::template rebind_alloc<T>>;

  // Maximum load factor 7/10; linear probing degrades quickly past ~0.75.
  static constexpr int64_t kMaxLoadNum = 7;
  static constexpr int64_t kMaxLoadDen = 10;
  // CapacityFor clamp: far beyond any allocatable slot array, but small
  // enough that `want <<= 1` can never reach the sign bit.
  static constexpr int64_t kMaxCapacity = int64_t{1} << 62;

  int64_t IdealSlot(const K& key) const {
    return static_cast<int64_t>(internal::MixHash(Hash{}(key))) &
           (capacity() - 1);
  }

  // First slot that either holds `key` or is empty.
  int64_t FindSlot(const K& key) const {
    const int64_t mask = capacity() - 1;
    int64_t i = IdealSlot(key);
    while (full_[i] && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // FindSlot plus probe accounting; only for the mutating entry points
  // (see ProbeStats above for why the const path must stay clean).
  int64_t FindSlotCounted(const K& key) {
    const int64_t mask = capacity() - 1;
    int64_t i = IdealSlot(key);
    int64_t steps = 0;
    while (full_[i] && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
      ++steps;
    }
    ++stats_.probes;
    stats_.probe_steps += steps;
    return i;
  }

  void MaybeGrow() {
    if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
      ++stats_.grow_rehashes;
      RINGO_COUNTER_ADD("flat_hash_map/grow_rehashes", 1);
      Rehash(std::max<int64_t>(16, capacity() * 2));
    }
  }

  void Rehash(int64_t new_cap) {
    Vec<Slot> old_slots = std::move(slots_);
    Vec<uint8_t> old_full = std::move(full_);
    slots_.assign(new_cap, Slot{});
    full_.assign(new_cap, 0);
    const int64_t mask = new_cap - 1;
    for (int64_t i = 0; i < static_cast<int64_t>(old_slots.size()); ++i) {
      if (!old_full[i]) continue;
      int64_t j = static_cast<int64_t>(
                      internal::MixHash(Hash{}(old_slots[i].key))) &
                  mask;
      while (full_[j]) j = (j + 1) & mask;
      slots_[j] = std::move(old_slots[i]);
      full_[j] = 1;
    }
  }

  Vec<Slot> slots_;
  Vec<uint8_t> full_;
  int64_t size_ = 0;
  ProbeStats stats_;
};

// FlatHashSet: set interface over FlatHashMap.
template <typename K, typename Hash = std::hash<K>>
class FlatHashSet {
 public:
  explicit FlatHashSet(int64_t initial_capacity = 16) : map_(initial_capacity) {}

  int64_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Reserve(int64_t n) { map_.Reserve(n); }
  void Clear() { map_.Clear(); }

  // Returns true if the key was newly inserted.
  bool Insert(const K& key) { return map_.Insert(key, Empty{}).second; }
  bool Contains(const K& key) const { return map_.Contains(key); }
  bool Erase(const K& key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](const K& k, const Empty&) { fn(k); });
  }

  std::vector<K> Keys() const { return map_.Keys(); }

 private:
  struct Empty {};
  FlatHashMap<K, Empty, Hash> map_;
};

}  // namespace ringo

#endif  // RINGO_STORAGE_FLAT_HASH_MAP_H_
