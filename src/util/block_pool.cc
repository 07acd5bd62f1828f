#include "util/block_pool.h"

#include <sys/mman.h>

#include <new>

#include "util/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ringo {

namespace {

void Unmap(void* p, size_t bytes) {
  // The shadow of an unmapped range must be clean for whoever maps it next.
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  ::munmap(p, bytes);
}

}  // namespace

BlockPool::~BlockPool() {
  for (const Block& b : idle_) Unmap(b.p, b.bytes);
}

BlockPool& BlockPool::Global() {
  static BlockPool* pool = new BlockPool(/*publish=*/true);
  return *pool;
}

size_t BlockPool::ClassBytes(size_t bytes) {
  return (bytes + kPoolBlockBytes - 1) / kPoolBlockBytes * kPoolBlockBytes;
}

void* BlockPool::Take(size_t bytes) {
  const size_t cls = ClassBytes(bytes);
  void* p = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = idle_.size(); i-- > 0;) {
      if (idle_[i].bytes != cls) continue;
      p = idle_[i].p;
      idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
      stats_.idle_bytes -= static_cast<int64_t>(cls);
      ++stats_.hits;
      AddLive(cls);
      if (publish_) RINGO_COUNTER_ADD("mem/pool_hit", 1);
      break;
    }
  }
  if (p == nullptr) {
    p = ::mmap(nullptr, cls, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.maps;
    AddLive(cls);
    if (publish_) RINGO_COUNTER_ADD("mem/pool_map", 1);
  }
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, cls - bytes);
  return p;
}

void BlockPool::Release(void* p, size_t bytes) noexcept {
  const size_t cls = ClassBytes(bytes);
  // Poisoned before it is idle: once idle, another thread may take it.
  ASAN_POISON_MEMORY_REGION(p, cls);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.live_bytes -= static_cast<int64_t>(cls);
  try {
    idle_.push_back({p, cls});
  } catch (const std::bad_alloc&) {
    Unmap(p, cls);
    ++stats_.unmaps;
    if (publish_) RINGO_COUNTER_ADD("mem/pool_unmap", 1);
    PublishGauges();
    return;
  }
  stats_.idle_bytes += static_cast<int64_t>(cls);
  // The block just released is the newest, and alone it never passes the
  // mark (it was live), so this unmaps only older blocks.
  while (stats_.idle_bytes > stats_.live_high_water) UnmapOldest();
  PublishGauges();
}

BlockPool::Stats BlockPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BlockPool::AddLive(size_t bytes) {
  stats_.live_bytes += static_cast<int64_t>(bytes);
  if (stats_.live_bytes > stats_.live_high_water) {
    stats_.live_high_water = stats_.live_bytes;
  }
  PublishGauges();
}

void BlockPool::UnmapOldest() {
  const Block b = idle_.front();
  idle_.erase(idle_.begin());
  Unmap(b.p, b.bytes);
  stats_.idle_bytes -= static_cast<int64_t>(b.bytes);
  ++stats_.unmaps;
  if (publish_) RINGO_COUNTER_ADD("mem/pool_unmap", 1);
}

void BlockPool::PublishGauges() const {
  if (!publish_ || !metrics::Enabled()) return;
  metrics::GaugeSet("mem/pool_live_bytes",
                    static_cast<double>(stats_.live_bytes));
  metrics::GaugeSet("mem/pool_idle_bytes",
                    static_cast<double>(stats_.idle_bytes));
}

}  // namespace ringo
