#include "algo/compact_csr.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/parallel.h"

namespace ringo {
namespace compactcsr {

namespace {

bool EnvDefault() {
  const char* v = std::getenv("RINGO_COMPACT_CSR");
  if (v == nullptr) return false;
  return std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0 ||
         std::strcmp(v, "true") == 0;
}

std::atomic<bool> g_enabled{EnvDefault()};

inline int VarintLen(uint64_t v) {
  // ceil(bit_width/7); bit_width(0) == 0, but zero still takes one byte.
  return (std::bit_width(v | 1) + 6) / 7;
}

inline uint8_t* EncodeVarint(uint64_t v, uint8_t* dst) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

// Encoded byte size of one run (first absolute, then gaps).
int64_t RunBytes(const int64_t* nbrs, int64_t deg) {
  if (deg == 0) return 0;
  int64_t sz = VarintLen(static_cast<uint64_t>(nbrs[0]));
  for (int64_t k = 1; k < deg; ++k) {
    sz += VarintLen(static_cast<uint64_t>(nbrs[k] - nbrs[k - 1]));
  }
  return sz;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

CompressedDir Compress(const std::vector<int64_t>& offsets,
                       const std::vector<int64_t>& nbrs) {
  const int64_t n = static_cast<int64_t>(offsets.size()) - 1;
  CompressedDir d;
  std::vector<int64_t> sizes(n + 1, 0);
  ParallelFor(0, n, [&](int64_t i) {
    sizes[i] = RunBytes(nbrs.data() + offsets[i], offsets[i + 1] - offsets[i]);
  });
  const int64_t total =
      ExclusivePrefixSum(sizes.data(), sizes.data(), n + 1);
  d.byte_offsets.resize(n + 1);
  for (int64_t i = 0; i <= n; ++i) {
    d.byte_offsets[i] = static_cast<uint64_t>(sizes[i]);
  }
  d.bytes.resize(total);
  ParallelForDynamic(0, n, [&](int64_t i) {
    const int64_t deg = offsets[i + 1] - offsets[i];
    if (deg == 0) return;
    const int64_t* run = nbrs.data() + offsets[i];
    uint8_t* dst = d.bytes.data() + d.byte_offsets[i];
    dst = EncodeVarint(static_cast<uint64_t>(run[0]), dst);
    for (int64_t k = 1; k < deg; ++k) {
      dst = EncodeVarint(static_cast<uint64_t>(run[k] - run[k - 1]), dst);
    }
  });
  return d;
}

void DecodeRun(const uint8_t* src, int64_t count, int64_t* dst) {
  DecodeRunForEach(src, count, [&dst](int64_t v) { *dst++ = v; });
}

namespace {

// Per-thread free list of decode buffers. Bounded so a burst of deep
// decodes cannot pin memory forever; overflow buffers are simply freed.
struct Pool {
  std::vector<DecodeBuf*> free;
  ~Pool() {
    for (DecodeBuf* b : free) delete b;
  }
};

constexpr size_t kMaxPooled = 64;
constexpr size_t kMinCap = 64;

Pool& ThreadPool() {
  static thread_local Pool pool;
  return pool;
}

}  // namespace

void ReleaseBuf(DecodeBuf* b) {
  Pool& p = ThreadPool();
  if (p.free.size() < kMaxPooled) {
    p.free.push_back(b);
  } else {
    delete b;
  }
}

BufRef AcquireBuf(size_t n) {
  Pool& p = ThreadPool();
  DecodeBuf* b = nullptr;
  if (!p.free.empty()) {
    b = p.free.back();
    p.free.pop_back();
  } else {
    b = new DecodeBuf();
  }
  if (b->cap < n) {
    size_t cap = b->cap < kMinCap ? kMinCap : b->cap;
    while (cap < n) cap *= 2;
    b->data = std::make_unique<int64_t[]>(cap);
    b->cap = cap;
  }
  b->refs.store(1, std::memory_order_relaxed);
  return BufRef(b);
}

}  // namespace compactcsr
}  // namespace ringo
