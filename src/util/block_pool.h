// BlockPool: a process-wide cache of large anonymous memory blocks for the
// graph layer's arrays (DESIGN.md §20).
//
// The arrays a table→graph conversion, an AlgoView build or a triangle
// count allocate are tens of MB each, far above glibc's mmap threshold, so
// every build faulted fresh 4 KiB pages in and every release returned them
// to the kernel. The pool keeps released blocks mapped, with their pages
// already faulted, and hands them to the next request of the same size
// class:
//   * a request of at least kPoolBlockBytes is rounded up to a multiple of
//     it (its class); a take reuses an idle block of exactly that class,
//     most recently released first, and otherwise maps a new one;
//   * idle bytes never exceed the high-water mark of live pooled bytes: a
//     release that would pass it unmaps the oldest idle blocks first;
//   * one mutex guards the pool; the mmap of a miss runs outside it.
//
// Only the graph layer allocates here, through PoolAllocator /
// PooledVector (util/default_init.h). Table storage is not pooled: an idle
// copy of a large table between loads would stay resident.
//
// Under AddressSanitizer an idle block is poisoned whole, and so is a taken
// block's tail past the requested bytes, so a read of a released array or
// an overrun inside its class is reported as it would be on the heap.
//
// The process-wide pool publishes the counters mem/pool_hit, mem/pool_map
// and mem/pool_unmap and the gauges mem/pool_live_bytes and
// mem/pool_idle_bytes (DESIGN.md §8).
#ifndef RINGO_UTIL_BLOCK_POOL_H_
#define RINGO_UTIL_BLOCK_POOL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ringo {

// The smallest pooled request and the granularity of the size classes.
inline constexpr size_t kPoolBlockBytes = size_t{2} << 20;

class BlockPool {
 public:
  struct Stats {
    int64_t hits = 0;    // Takes served by an idle block.
    int64_t maps = 0;    // Takes that mapped a new block.
    int64_t unmaps = 0;  // Idle blocks returned to the kernel.
    int64_t live_bytes = 0;
    int64_t idle_bytes = 0;
    int64_t live_high_water = 0;
  };

  // A private pool that publishes no metrics (tests); the graph layer uses
  // Global().
  BlockPool() = default;
  // Unmaps the idle blocks. Every taken block must have been released.
  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // The process-wide pool. Never destroyed, so a graph destroyed during
  // static teardown still releases into it.
  static BlockPool& Global();

  // `bytes` rounded up to a multiple of kPoolBlockBytes.
  static size_t ClassBytes(size_t bytes);

  // A block of ClassBytes(bytes), page-aligned, for bytes >=
  // kPoolBlockBytes. Its contents are unspecified. Throws std::bad_alloc
  // when a new block cannot be mapped.
  void* Take(size_t bytes);

  // Returns a block from Take(bytes), with the same `bytes`.
  void Release(void* p, size_t bytes) noexcept;

  Stats stats() const;

 private:
  struct Block {
    void* p;
    size_t bytes;  // Its class.
  };

  explicit BlockPool(bool publish) : publish_(publish) {}

  // Caller holds mu_.
  void AddLive(size_t bytes);
  void UnmapOldest();
  void PublishGauges() const;

  const bool publish_ = false;
  mutable std::mutex mu_;
  std::vector<Block> idle_;  // In release order, oldest first.
  Stats stats_;
};

}  // namespace ringo

#endif  // RINGO_UTIL_BLOCK_POOL_H_
