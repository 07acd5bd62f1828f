#include "util/block_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/default_init.h"
#include "util/metrics.h"

namespace ringo {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

TEST(BlockPoolTest, ClassesAreMultiplesOfTwoMiB) {
  EXPECT_EQ(kPoolBlockBytes, 2 * kMiB);
  EXPECT_EQ(BlockPool::ClassBytes(2 * kMiB), 2 * kMiB);
  EXPECT_EQ(BlockPool::ClassBytes(2 * kMiB + 1), 4 * kMiB);
  EXPECT_EQ(BlockPool::ClassBytes(4 * kMiB), 4 * kMiB);
  EXPECT_EQ(BlockPool::ClassBytes(5 * kMiB), 6 * kMiB);
}

TEST(BlockPoolTest, ReleasedBlocksComeBackMostRecentFirst) {
  BlockPool pool;
  void* a = pool.Take(3 * kMiB);
  void* b = pool.Take(4 * kMiB);  // Same 4 MiB class as a.
  ASSERT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 4096, 0u);
  pool.Release(a, 3 * kMiB);
  pool.Release(b, 4 * kMiB);
  EXPECT_EQ(pool.Take(4 * kMiB), b);
  EXPECT_EQ(pool.Take(3 * kMiB + 1), a);
  void* c = pool.Take(2 * kMiB);  // Another class: a new block.
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.maps, 3);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.unmaps, 0);
  EXPECT_EQ(s.live_bytes, static_cast<int64_t>(10 * kMiB));
  EXPECT_EQ(s.idle_bytes, 0);
  pool.Release(a, 3 * kMiB + 1);
  pool.Release(b, 4 * kMiB);
  pool.Release(c, 2 * kMiB);
  s = pool.stats();
  EXPECT_EQ(s.live_bytes, 0);
  EXPECT_EQ(s.idle_bytes, static_cast<int64_t>(10 * kMiB));
  EXPECT_EQ(s.live_high_water, static_cast<int64_t>(10 * kMiB));
}

// Idle bytes stay at or below the live high-water mark; a release that
// would pass it unmaps the oldest idle blocks first.
TEST(BlockPoolTest, RetentionUnmapsTheOldestIdleBlockFirst) {
  BlockPool pool;
  void* a = pool.Take(4 * kMiB);
  void* b = pool.Take(4 * kMiB);  // High-water mark: 8 MiB.
  pool.Release(a, 4 * kMiB);
  pool.Release(b, 4 * kMiB);  // Idle 8 MiB, a the oldest.
  void* c = pool.Take(2 * kMiB);  // No 2 MiB block idle: a new map.
  BlockPool::Stats s = pool.stats();
  EXPECT_EQ(s.maps, 3);
  EXPECT_EQ(s.live_high_water, static_cast<int64_t>(8 * kMiB));
  pool.Release(c, 2 * kMiB);  // Idle would be 10 MiB: a goes.
  s = pool.stats();
  EXPECT_EQ(s.unmaps, 1);
  EXPECT_EQ(s.idle_bytes, static_cast<int64_t>(6 * kMiB));
  // b is still idle; a is not, so a second 4 MiB take maps.
  EXPECT_EQ(pool.Take(4 * kMiB), b);
  void* d = pool.Take(4 * kMiB);
  s = pool.stats();
  EXPECT_EQ(s.maps, 4);
  EXPECT_EQ(s.hits, 1);
  pool.Release(b, 4 * kMiB);
  pool.Release(d, 4 * kMiB);
}

// The process-wide pool's counters move with its stats.
TEST(BlockPoolTest, GlobalPoolPublishesItsCounters) {
  metrics::SetEnabled(true);
  BlockPool& pool = BlockPool::Global();
  const int64_t hits = metrics::CounterValue("mem/pool_hit");
  const int64_t maps = metrics::CounterValue("mem/pool_map");
  const BlockPool::Stats before = pool.stats();
  void* p = pool.Take(6 * kMiB);
  pool.Release(p, 6 * kMiB);
  EXPECT_EQ(pool.Take(6 * kMiB), p);
  const BlockPool::Stats after = pool.stats();
  EXPECT_EQ(after.hits + after.maps, before.hits + before.maps + 2);
  EXPECT_EQ(metrics::CounterValue("mem/pool_hit") - hits,
            after.hits - before.hits);
  EXPECT_EQ(metrics::CounterValue("mem/pool_map") - maps,
            after.maps - before.maps);
  EXPECT_EQ(metrics::GaugeValue("mem/pool_live_bytes"),
            static_cast<double>(after.live_bytes));
  EXPECT_GE(after.live_bytes, static_cast<int64_t>(6 * kMiB));
  pool.Release(p, 6 * kMiB);
}

int64_t GlobalTakes() {
  const BlockPool::Stats s = BlockPool::Global().stats();
  return s.hits + s.maps;
}

TEST(PoolAllocatorTest, RequestsBelowTwoMiBStayOnTheHeap) {
  const int64_t takes = GlobalTakes();
  PoolAllocator<char> chars;
  char* small = chars.allocate(kPoolBlockBytes - 1);
  small[kPoolBlockBytes - 2] = 1;
  chars.deallocate(small, kPoolBlockBytes - 1);
  {
    PooledVector<int64_t> v(kPoolBlockBytes / sizeof(int64_t) - 1);
    v.back() = 1;
  }
  EXPECT_EQ(GlobalTakes(), takes);
  {
    PooledVector<int64_t> v(kPoolBlockBytes / sizeof(int64_t));
    v.back() = 1;
  }
  EXPECT_EQ(GlobalTakes(), takes + 1);
}

TEST(PoolAllocatorTest, OverflowingSizeThrows) {
  PoolAllocator<int64_t> a;
  EXPECT_THROW(a.allocate(SIZE_MAX / sizeof(int64_t) + 1),
               std::bad_array_new_length);
  EXPECT_TRUE(a == PoolAllocator<char>());
}

TEST(PooledVectorTest, ResizeCopyMoveAndSwap) {
  constexpr size_t kBig = 3 * kMiB / sizeof(int64_t);
  PooledVector<int64_t> v(kBig);
  std::iota(v.begin(), v.end(), int64_t{0});
  EXPECT_EQ(v.capacity(), kBig);

  PooledVector<int64_t> copy = v;
  EXPECT_NE(copy.data(), v.data());
  EXPECT_EQ(copy, v);

  const int64_t* data = v.data();
  PooledVector<int64_t> moved = std::move(v);
  EXPECT_EQ(moved.data(), data);  // A move hands the block over.
  EXPECT_TRUE(v.empty());

  PooledVector<int64_t> small(10, 7);
  const int64_t* small_data = small.data();
  moved.swap(small);
  EXPECT_EQ(small.data(), data);
  EXPECT_EQ(moved.data(), small_data);
  EXPECT_EQ(moved, PooledVector<int64_t>(10, 7));
  EXPECT_EQ(small, copy);

  // Growth past the block moves to a larger class; cells keep their values.
  small.resize(2 * kBig);
  EXPECT_EQ(small[kBig - 1], static_cast<int64_t>(kBig - 1));
  small[2 * kBig - 1] = -1;
  EXPECT_EQ(small.back(), -1);
  small.resize(5);
  small.shrink_to_fit();  // Back onto the heap.
  EXPECT_EQ(small, PooledVector<int64_t>({0, 1, 2, 3, 4}));

  copy = moved;  // Copy-assign a small vector over a pooled one.
  EXPECT_EQ(copy, moved);
}

// Four threads take and release blocks of mixed classes, stamp every page
// with their own pattern and check it before the release: a block handed
// to two owners at once, or a stale cell, shows up as a wrong stamp (and
// under TSan as a race).
TEST(BlockPoolStress, FourThreadsTakeAndReleaseMixedClasses) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  constexpr size_t kPage = 4096;
  std::vector<int64_t> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bad] {
      struct Held {
        uint64_t* p;
        size_t bytes;
        uint64_t stamp;
      };
      BlockPool& pool = BlockPool::Global();
      std::vector<Held> held;
      for (int r = 0; r < kRounds; ++r) {
        const size_t bytes = ((t + r) % 3 + 1) * kPoolBlockBytes + 8 * (r % 5);
        auto* p = static_cast<uint64_t*>(pool.Take(bytes));
        const uint64_t stamp = (uint64_t(t) << 32) | (uint64_t(r) << 16);
        for (size_t page = 0; page < bytes / kPage; ++page) {
          p[page * kPage / sizeof(uint64_t)] = stamp + page;
        }
        held.push_back({p, bytes, stamp});
        // Hold up to three blocks, so releases interleave with takes.
        if (held.size() == 3 || r == kRounds - 1) {
          for (const Held& h : held) {
            for (size_t page = 0; page < h.bytes / kPage; ++page) {
              if (h.p[page * kPage / sizeof(uint64_t)] != h.stamp + page) {
                ++bad[t];
              }
            }
            pool.Release(h.p, h.bytes);
          }
          held.clear();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
}

#if defined(__SANITIZE_ADDRESS__)
// Pooled arrays stay visible to AddressSanitizer: an idle block is
// poisoned, and so is a taken block's tail past the request.
TEST(BlockPoolDeathTest, ReadingAReleasedArrayIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const int64_t* p;
        {
          PooledVector<int64_t> v(kPoolBlockBytes / sizeof(int64_t), 1);
          p = v.data();
        }
        volatile int64_t x = p[100];
        (void)x;
      },
      "use-after-poison");
}

TEST(BlockPoolDeathTest, WritingPastTheRequestInsideItsClassIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PooledVector<int64_t> v(kPoolBlockBytes / sizeof(int64_t) + 1);
        volatile int64_t* p = v.data();
        p[v.size() + 8] = 1;  // Inside the 4 MiB class, past the request.
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace ringo
