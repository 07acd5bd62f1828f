// OpenMP-backed parallel primitives. The paper parallelizes critical loops
// with "a few OpenMP statements" (§2.5); this header centralizes those
// patterns: parallel-for over index ranges, parallel comparison sort (the
// backbone of the sort-first table→graph conversion, §2.4), parallel prefix
// sums, deterministic reductions, and thread-count plumbing.
//
// Everything here degrades gracefully to sequential execution when OpenMP
// has a single thread available.
//
// ---------------------------------------------------------------------------
// ThreadSanitizer strategy (see README.md "Testing & sanitizers")
//
// GCC's libgomp synchronizes through raw futexes that TSan cannot model, so
// a naive `#pragma omp parallel for` produces false positives even for
// perfectly synchronized code. Instead of blanket suppressions — which
// would also mask *real* races in loop bodies, because suppression patterns
// match whole stacks — every primitive here makes the fork/join ordering
// explicit:
//
//   1. A RegionFence (one atomic, acquire/release) is published by the
//      master before the region and observed by every worker on entry;
//      workers publish on exit and the master observes after the join.
//      This is real C++ synchronization, valid under the memory model
//      independent of libgomp, and it teaches TSan the fork/join edges.
//   2. The one thing the fence cannot cover is the compiler-generated
//      argument block (omp_data / task payload): it is written by the
//      master AT region/task launch — after the fence publish — and read
//      by workers before any user code runs. The OpenMP runtime guarantees
//      that handoff; TSan just cannot see it. Each region therefore copies
//      the captured values to locals inside a narrow
//      AnnotateIgnoreReadsBegin/End window and runs the body off the
//      locals. The copies go through HandoffRead (volatile byte reads):
//      GCC marks the outlined function's argument-block pointer
//      `restrict`, so plain loads get hoisted into the prologue, above
//      the window open — volatile reads cannot be reordered across the
//      annotation calls. Only those few word-sized handoff reads are
//      exempted; all loop-body accesses remain fully checked.
// ---------------------------------------------------------------------------
#ifndef RINGO_UTIL_PARALLEL_H_
#define RINGO_UTIL_PARALLEL_H_

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define RINGO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RINGO_TSAN 1
#endif
#endif

#ifdef RINGO_TSAN
extern "C" {
// Exported by libtsan (valgrind-compatible annotation API).
void AnnotateIgnoreReadsBegin(const char* file, int line);
void AnnotateIgnoreReadsEnd(const char* file, int line);
}
#define RINGO_TSAN_IGNORE_READS_BEGIN() \
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__)
#define RINGO_TSAN_IGNORE_READS_END() AnnotateIgnoreReadsEnd(__FILE__, __LINE__)
#else
#define RINGO_TSAN_IGNORE_READS_BEGIN() ((void)0)
#define RINGO_TSAN_IGNORE_READS_END() ((void)0)
#endif

namespace ringo {

// Number of threads a parallel region will use (honors OMP_NUM_THREADS and
// SetNumThreads).
int NumThreads();

// Caps the number of threads used by subsequent parallel regions.
void SetNumThreads(int n);

namespace internal {

// RegionFence: materializes the happens-before edges of an OpenMP
// fork/join region as C++ acquire/release operations on one atomic.
// Protocol:
//   * the master calls Publish() before the region and Observe() after it;
//   * each worker calls Observe() on entry and Publish() on exit (for
//     tasks: Observe() at task start, Publish() at task end).
// Publish() releases all prior writes of the calling thread; Observe()
// acquires everything published so far. The chain of read-modify-writes
// keeps every Publish() in one release sequence, so a single Observe()
// synchronizes with all of them.
class RegionFence {
 public:
  void Publish() { token_.fetch_add(1, std::memory_order_acq_rel); }
  void Observe() { (void)token_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> token_{0};
};

// Copies `src` through volatile byte reads. Used for the OpenMP argument
// handoff inside a TSan ignore-reads window: a plain copy of a region
// capture compiles to a load through the `restrict`-qualified argument
// block, which GCC hoists into the outlined function's prologue — above
// the window open. Volatile accesses cannot be reordered across the
// (side-effecting) annotation calls, so these reads stay inside the
// window. Compiles to an ordinary word copy when TSan is off.
template <typename T>
inline T HandoffRead(const T& src) {
  static_assert(std::is_trivially_copyable_v<T>,
                "OpenMP handoff values must be trivially copyable");
  union Bits {
    unsigned char raw[sizeof(T)];
    T val;
    Bits() : raw{} {}
  } bits;
  const volatile unsigned char* from =
      reinterpret_cast<const volatile unsigned char*>(&src);
  for (std::size_t i = 0; i < sizeof(T); ++i) bits.raw[i] = from[i];
  return bits.val;
}

}  // namespace internal

// Applies fn(i) for i in [begin, end), statically partitioned across
// threads. fn must be safe to run concurrently for distinct i.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, Fn&& fn) {
  if (NumThreads() <= 1 || end - begin <= 1) {
    // No concurrency possible: skip the fork/join region and its fences.
    // Same iteration order as a one-thread region, so bit-identical output.
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  internal::RegionFence fence;
  internal::RegionFence* const fence_ptr = &fence;
  auto* const fn_ptr = &fn;
  fence.Publish();
#pragma omp parallel default(shared)
  {
    RINGO_TSAN_IGNORE_READS_BEGIN();
    const int64_t b = internal::HandoffRead(begin);
    const int64_t e = internal::HandoffRead(end);
    auto* const f = internal::HandoffRead(fn_ptr);
    internal::RegionFence* const fc = internal::HandoffRead(fence_ptr);
    RINGO_TSAN_IGNORE_READS_END();
    fc->Observe();
#pragma omp for schedule(static) nowait
    for (int64_t i = b; i < e; ++i) {
      (*f)(i);
    }
    fc->Publish();
  }
  fence.Observe();
}

// Dynamic-scheduled variant for skewed per-item costs (e.g. per-node work on
// power-law graphs, where hub nodes dominate).
template <typename Fn>
void ParallelForDynamic(int64_t begin, int64_t end, Fn&& fn,
                        int64_t chunk = 256) {
  if (NumThreads() <= 1 || end - begin <= 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  internal::RegionFence fence;
  internal::RegionFence* const fence_ptr = &fence;
  auto* const fn_ptr = &fn;
  fence.Publish();
#pragma omp parallel default(shared)
  {
    RINGO_TSAN_IGNORE_READS_BEGIN();
    const int64_t b = internal::HandoffRead(begin);
    const int64_t e = internal::HandoffRead(end);
    const int64_t ck = internal::HandoffRead(chunk);
    auto* const f = internal::HandoffRead(fn_ptr);
    internal::RegionFence* const fc = internal::HandoffRead(fence_ptr);
    RINGO_TSAN_IGNORE_READS_END();
    fc->Observe();
#pragma omp for schedule(dynamic, ck) nowait
    for (int64_t i = b; i < e; ++i) {
      (*f)(i);
    }
    fc->Publish();
  }
  fence.Observe();
}

namespace internal {

constexpr int64_t kParallelSortCutoff = 1 << 14;

}  // namespace internal

// Parallel comparison sort: bottom-up merge sort — leaf chunks are
// std::sort-ed in parallel, then pairwise std::merge passes double the
// sorted width until the whole range is one run. Merges stream
// out-of-place, ping-ponging between the input range and one scratch
// buffer (std::inplace_merge's rotate-based fallback is far slower and
// allocates per merge anyway), so the element type must be copyable.
// Each pass is a ParallelFor, so every fork/join edge is fence-covered
// (OpenMP tasks are deliberately avoided: GCC reads scalar task payloads
// in the outlined function's prologue, which defeats the TSan handoff
// windows). Stable ordering is NOT guaranteed; with a total-order
// comparator the output is deterministic for every thread count. Falls
// back to std::sort for small inputs or single-threaded runs.
//
// This is the generic fallback kernel: operators whose keys normalize to
// uint64 words run the distribution sort in util/radix_sort.h instead
// (see table/key_normalize.h for the selection rules).
template <typename Iter, typename Cmp>
void ParallelSort(Iter begin, Iter end, Cmp cmp) {
  using T = typename std::iterator_traits<Iter>::value_type;
  const int64_t n = end - begin;
  if (n <= internal::kParallelSortCutoff || NumThreads() <= 1) {
    std::sort(begin, end, cmp);
    return;
  }
  // Leaf chunks sized for ~4 per thread (load balance), but large enough
  // that std::sort dominates the merge overhead.
  const int64_t target_chunks = int64_t{4} * NumThreads();
  const int64_t chunk =
      std::max((n + target_chunks - 1) / target_chunks,
               internal::kParallelSortCutoff / 4);
  const int64_t nchunks = (n + chunk - 1) / chunk;
  ParallelFor(0, nchunks, [&](int64_t c) {
    const int64_t lo = c * chunk;
    const int64_t hi = std::min(n, lo + chunk);
    std::sort(begin + lo, begin + hi, cmp);
  });
  if (nchunks <= 1) return;

  // Copy-construct the scratch from the range: works for any copyable T
  // (no default construction) and the first pass overwrites it anyway.
  std::vector<T> buf(begin, end);
  auto merge_pass = [&](auto src, auto dst, int64_t width) {
    const int64_t pairs = (n + 2 * width - 1) / (2 * width);
    ParallelFor(0, pairs, [&](int64_t p) {
      const int64_t lo = p * 2 * width;
      const int64_t mid = std::min(n, lo + width);
      const int64_t hi = std::min(n, lo + 2 * width);
      // An unpaired tail run (mid == hi) degenerates to a copy.
      std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, cmp);
    });
  };
  bool in_buf = false;  // Where the full data currently lives.
  for (int64_t width = chunk; width < n; width *= 2) {
    if (in_buf) {
      merge_pass(buf.begin(), begin, width);
    } else {
      merge_pass(begin, buf.begin(), width);
    }
    in_buf = !in_buf;
  }
  if (in_buf) {
    ParallelFor(0, nchunks, [&](int64_t c) {
      const int64_t lo = c * chunk;
      const int64_t hi = std::min(n, lo + chunk);
      std::copy(buf.begin() + lo, buf.begin() + hi, begin + lo);
    });
  }
}

template <typename Iter>
void ParallelSort(Iter begin, Iter end) {
  using T = typename std::iterator_traits<Iter>::value_type;
  ParallelSort(begin, end, std::less<T>());
}

// Deterministic (thread-count-invariant) parallel reduction of fn(i) over
// [begin, end). Values are accumulated sequentially inside fixed-size
// blocks and the block partials are combined in index order, so for
// floating-point accumulators the result is bit-identical no matter how
// many threads execute — unlike `omp reduction`, whose combination order
// depends on the team size and schedule. With `parallel == false` the same
// blocked association is used on the calling thread, so sequential and
// parallel callers agree bit-for-bit.
template <typename Fn,
          typename T = std::decay_t<std::invoke_result_t<Fn&, int64_t>>>
T DeterministicBlockSum(int64_t begin, int64_t end, Fn&& fn,
                        bool parallel = true) {
  constexpr int64_t kBlock = 1 << 12;
  const int64_t n = end - begin;
  if (n <= 0) return T{};
  const int64_t nblocks = (n + kBlock - 1) / kBlock;
  std::vector<T> partial(static_cast<size_t>(nblocks), T{});
  auto block = [&](int64_t b) {
    const int64_t lo = begin + b * kBlock;
    const int64_t hi = std::min(end, lo + kBlock);
    T acc{};
    for (int64_t i = lo; i < hi; ++i) acc += fn(i);
    partial[b] = acc;
  };
  if (parallel && nblocks > 1) {
    // Dynamic schedule: blocks are coarse already, and per-block cost can
    // be skewed (hub nodes); claiming order cannot affect the result.
    ParallelForDynamic(0, nblocks, block, /*chunk=*/1);
  } else {
    for (int64_t b = 0; b < nblocks; ++b) block(b);
  }
  T total{};
  for (const T& p : partial) total += p;
  return total;
}

// Exclusive prefix sum: out[i] = sum of in[0..i); returns the total. `out`
// may alias `in`. Runs in two parallel passes for large inputs.
int64_t ExclusivePrefixSum(const int64_t* in, int64_t* out, int64_t n);

inline int64_t ExclusivePrefixSum(std::vector<int64_t>& v) {
  return ExclusivePrefixSum(v.data(), v.data(), static_cast<int64_t>(v.size()));
}

// Splits [0, n) into NumThreads() near-equal contiguous ranges; returns the
// (thread_count + 1) boundaries. Used by partitioned writers (graph→table
// conversion, §2.4).
std::vector<int64_t> PartitionRange(int64_t n, int parts);

namespace internal {

// Ranges up to this many elements run on the calling thread: a fork/join
// costs more than a pass over them saves.
constexpr int64_t kParallelRangeCutoff = 1 << 14;

}  // namespace internal

// Number of parts a partitioned pass over n elements uses: one at or below
// internal::kParallelRangeCutoff, else NumThreads().
inline int RangeParts(int64_t n) {
  return n <= internal::kParallelRangeCutoff ? 1 : std::max(1, NumThreads());
}

// Applies fn(lo, hi) to the RangeParts(end - begin) contiguous ranges that
// tile [begin, end), in parallel. A single part runs on the calling thread
// with no fork/join.
template <typename Fn>
void ParallelForRange(int64_t begin, int64_t end, Fn&& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int parts = RangeParts(n);
  if (parts == 1) {
    fn(begin, end);
    return;
  }
  const std::vector<int64_t> bounds = PartitionRange(n, parts);
  ParallelFor(0, parts, [&](int64_t p) {
    fn(begin + bounds[p], begin + bounds[p + 1]);
  });
}

}  // namespace ringo

#endif  // RINGO_UTIL_PARALLEL_H_
