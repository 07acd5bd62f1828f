// Delta+varint codec, pooled decode scratch and opt-in switch for the
// compressed CSR base layout (DESIGN.md §14).
//
// AlgoView guarantees every neighbor run is a strictly ascending span of
// dense indices, so each run compresses to varint(first) followed by
// varint(gap) per remaining neighbor — LEB128, low 7 bits per byte,
// high bit = continuation. The per-node *element* offsets stay plain in
// BaseCsr (degrees must be O(1) — PageRank divides by out-degree every
// iteration), so a CompressedDir carries only the byte directory and the
// byte stream. Typical social-graph gap distributions land at ~2 bytes per
// arc vs 8 plain.
//
// Decoding targets pooled per-thread scratch buffers handed out as
// refcounted BufRefs: a NbrSpan returned by AlgoView::Out/In holds one ref,
// so the bytes stay valid exactly as long as any span over them lives —
// kernels that hold one span while decoding others (triangle counting's
// Out(i) vs Out(j)) get distinct buffers, and buffers recycle to the
// releasing thread's free list the moment the last span drops. Refcounts
// are atomic, so a span may migrate threads; the pool itself is
// thread-local and lock-free.
#ifndef RINGO_ALGO_COMPACT_CSR_H_
#define RINGO_ALGO_COMPACT_CSR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ringo {
namespace compactcsr {

// Kill switch for the compressed base layout. With it on,
// AlgoView::BuildFull stores the base neighbor arrays delta+varint-encoded
// and Out()/In() decode runs into pooled thread-local scratch behind the
// same span-shaped interface; with it off (default), the base stays plain
// flat arrays — the parity oracle. Same discipline as radix::SetEnabled
// and deltacsr::SetEnabled, with one deliberate inversion: the compact
// layout is *opt-in* (env RINGO_COMPACT_CSR=on or SetEnabled(true))
// because it trades per-read decode CPU for ~3-4x less memory per arc —
// the right default for beyond-RAM datasets, not for the latency-tracked
// benchmark rows.
//
// The switch is sampled when a base CSR is built; already-built snapshots
// keep their layout, so toggling never invalidates cached views. Patch
// overlays (DirPatch) are always plain — they are small by the compaction
// invariant.
//
// True = newly built base CSRs are varint-compressed; false (default
// unless env RINGO_COMPACT_CSR is "on"/"1"/"true") = plain arrays. Reads
// are relaxed atomics, safe from any thread; toggle only between builds.
bool Enabled();
void SetEnabled(bool on);

// RAII toggle for tests and ablations.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

// One direction's compressed neighbor payload. Element offsets (degrees)
// live beside it in the owning BaseCsr; byte_offsets has n+1 entries
// delimiting each node's varint stream inside `bytes`.
struct CompressedDir {
  std::vector<uint64_t> byte_offsets;
  std::vector<uint8_t> bytes;

  bool has() const { return !byte_offsets.empty(); }
  int64_t MemoryUsageBytes() const {
    return static_cast<int64_t>(byte_offsets.capacity() * sizeof(uint64_t) +
                                bytes.capacity() * sizeof(uint8_t));
  }
};

// Compresses a plain CSR direction (offsets: n+1 entries, nbrs: ascending
// runs). Two parallel passes: per-node byte sizing + prefix sum, then
// independent per-node encodes.
CompressedDir Compress(std::span<const int64_t> offsets,
                       std::span<const int64_t> nbrs);

// Decodes `count` values of one varint delta stream into dst.
void DecodeRun(const uint8_t* src, int64_t count, int64_t* dst);

// Decode-and-consume fusion: calls fn(value) for each of the `count`
// decoded values without materializing a buffer. This is the hot path for
// sequential-scan kernels (PageRank's pull) where the pooled-scratch
// round-trip of DecodeRun would dominate small runs; the one-byte varint
// (gap < 128 — the overwhelmingly common case on delta-encoded social
// graphs) costs a load, a test, and two adds.
template <typename Fn>
inline void DecodeRunForEach(const uint8_t* src, int64_t count, Fn&& fn) {
  int64_t prev = 0;
  for (int64_t k = 0; k < count; ++k) {
    uint64_t b = *src++;
    if (b & 0x80) {
      uint64_t v = b & 0x7F;
      int shift = 7;
      do {
        b = *src++;
        v |= (b & 0x7F) << shift;
        shift += 7;
      } while (b & 0x80);
      prev += static_cast<int64_t>(v);
    } else {
      prev += static_cast<int64_t>(b);
    }
    fn(prev);
  }
}

// ---- Pooled decode scratch ----------------------------------------------

struct DecodeBuf {
  std::unique_ptr<int64_t[]> data;
  size_t cap = 0;
  std::atomic<int32_t> refs{0};
};

// Returns a buffer with capacity >= n to the thread-local pool; internal.
void ReleaseBuf(DecodeBuf* b);

// Refcounted handle to a pooled decode buffer. Default-constructed (null)
// on the plain-layout path, so copying a NbrSpan there is two words.
class BufRef {
 public:
  BufRef() = default;
  explicit BufRef(DecodeBuf* b) : b_(b) {}  // Takes over one ref.
  BufRef(const BufRef& o) : b_(o.b_) {
    if (b_ != nullptr) b_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufRef(BufRef&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
  BufRef& operator=(const BufRef& o) {
    BufRef tmp(o);
    std::swap(b_, tmp.b_);
    return *this;
  }
  BufRef& operator=(BufRef&& o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~BufRef() {
    if (b_ != nullptr &&
        b_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ReleaseBuf(b_);
    }
  }

  int64_t* data() const { return b_ != nullptr ? b_->data.get() : nullptr; }

 private:
  DecodeBuf* b_ = nullptr;
};

// Hands out a buffer with capacity >= n holding one ref, reusing the
// calling thread's free list when possible.
BufRef AcquireBuf(size_t n);

}  // namespace compactcsr
}  // namespace ringo

#endif  // RINGO_ALGO_COMPACT_CSR_H_
