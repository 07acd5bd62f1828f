#include "algo/bfs_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>

#include "util/cancel.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace ringo {
namespace bfs {

namespace {

constexpr int64_t kNoDist = -1;
// Internal "no parent yet" marker: must compare greater than every dense
// index so the min-reduction works; remapped to -1 before returning.
constexpr int64_t kUnsetParent = std::numeric_limits<int64_t>::max();
// Below this much per-level work (frontier + scanned arcs) a fork/join is
// not worth it; the level runs on the calling thread. The sequential step
// computes the same dist/parent values, so the cutoff is invisible in
// results.
constexpr int64_t kSeqLevelCutoff = 1 << 11;
// Bottom-up block: 64 bitmap words, so next-frontier bit writes never
// straddle a block boundary and need no atomics.
constexpr int64_t kBlockNodes = 1 << 12;
// Beamer's switching thresholds. Top-down -> bottom-up when
// scout * kAlpha > unexplored arcs; bottom-up -> top-down when the
// frontier shrinks and awake * kBeta < n.
constexpr double kAlpha = 15.0;
constexpr double kBeta = 18.0;

class Bitmap {
 public:
  explicit Bitmap(int64_t n) : words_((n + 63) >> 6, 0) {}
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }
  bool Test(int64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(int64_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void SetAtomic(int64_t i) {
    std::atomic_ref<uint64_t>(words_[i >> 6])
        .fetch_or(uint64_t{1} << (i & 63), std::memory_order_relaxed);
  }
  void SwapWith(Bitmap& o) { words_.swap(o.words_); }

 private:
  std::vector<uint64_t> words_;
};

// Resolves a BfsDir against a view into one or two sorted adjacency spans
// per vertex. The b-span is non-empty only for kBoth on a directed view.
class DirView {
 public:
  DirView(const AlgoView& view, BfsDir dir) : v_(&view) {
    if (!view.directed() || dir == BfsDir::kOut) {
      fwd_out_ = true;
    } else if (dir == BfsDir::kIn) {
      fwd_in_ = true;
    } else {
      fwd_out_ = fwd_in_ = true;
    }
  }

  bool both() const { return fwd_out_ && fwd_in_; }

  // Arcs followed when expanding u forward. NbrSpan (not std::span):
  // on a compressed base each run lives in pooled scratch pinned by the
  // returned handle for as long as the caller holds it.
  NbrSpan FwdA(int64_t u) const {
    return fwd_out_ ? v_->Out(u) : v_->In(u);
  }
  NbrSpan FwdB(int64_t u) const { return both() ? v_->In(u) : NbrSpan{}; }
  // Candidate predecessors of an unvisited vertex (reverse of Fwd). For an
  // undirected view In == Out, so this degenerates correctly.
  NbrSpan BwdA(int64_t u) const {
    return fwd_out_ ? v_->In(u) : v_->Out(u);
  }
  NbrSpan BwdB(int64_t u) const { return both() ? v_->Out(u) : NbrSpan{}; }

  // Degrees come from the O(1) offset arrays — no decode. When both() is
  // set FwdA is Out and FwdB is In.
  int64_t FwdDegree(int64_t u) const {
    const int64_t a = fwd_out_ ? v_->OutDegree(u) : v_->InDegree(u);
    return both() ? a + v_->InDegree(u) : a;
  }
  int64_t TotalFwdArcs() const {
    int64_t total = 0;
    if (fwd_out_) total += v_->NumOutArcs();
    if (fwd_in_) total += v_->NumInArcs();
    return total;
  }

 private:
  const AlgoView* v_;
  bool fwd_out_ = false;
  bool fwd_in_ = false;
};

// Minimum dense index in `front` among two ascending candidate spans
// (two-pointer merge); -1 if the frontier contains none of them.
int64_t MinFrontierParent(std::span<const int64_t> a,
                          std::span<const int64_t> b, const Bitmap& front) {
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    int64_t u;
    if (j >= b.size()) {
      u = a[i++];
    } else if (i >= a.size()) {
      u = b[j++];
    } else if (a[i] <= b[j]) {
      u = a[i++];
    } else {
      u = b[j++];
    }
    if (front.Test(u)) return u;
  }
  return -1;
}

void AtomicMinI64(int64_t* p, int64_t v) {
  std::atomic_ref<int64_t> a(*p);
  int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// One sequential top-down level. The frontier is ascending, so the first
// discoverer of each vertex is its minimum-id frontier predecessor.
int64_t TopDownSeq(const DirView& dv, int64_t level, bool parents,
                   const std::vector<int64_t>& frontier,
                   std::vector<int64_t>* next, DenseBfs* r,
                   int64_t* new_scout) {
  next->clear();
  int64_t sc = 0;
  auto visit = [&](int64_t u, int64_t w) {
    if (r->dist[w] == kNoDist) {
      r->dist[w] = level;
      if (parents) r->parent[w] = u;
      next->push_back(w);
      sc += dv.FwdDegree(w);
    }
  };
  for (int64_t u : frontier) {
    for (int64_t w : dv.FwdA(u)) visit(u, w);
    for (int64_t w : dv.FwdB(u)) visit(u, w);
  }
  std::sort(next->begin(), next->end());
  *new_scout = sc;
  return static_cast<int64_t>(next->size());
}

// One parallel top-down level: CAS-claim into per-thread buffers, then
// concatenate in slice order and radix-sort so the next frontier is the
// same ascending list every schedule produces.
int64_t TopDownPar(const DirView& dv, int64_t level, bool parents,
                   const std::vector<int64_t>& frontier,
                   std::vector<int64_t>* next, DenseBfs* r,
                   int64_t* new_scout) {
  const int threads = NumThreads();
  const std::vector<int64_t> bounds =
      PartitionRange(static_cast<int64_t>(frontier.size()), threads);
  std::vector<std::vector<int64_t>> bufs(threads);
  std::vector<int64_t> scouts(threads, 0);
  ParallelFor(0, threads, [&](int64_t t) {
    std::vector<int64_t>& buf = bufs[t];
    int64_t sc = 0;
    auto visit = [&](int64_t u, int64_t w) {
      std::atomic_ref<int64_t> dref(r->dist[w]);
      int64_t cur = dref.load(std::memory_order_relaxed);
      if (cur == kNoDist) {
        int64_t expected = kNoDist;
        if (dref.compare_exchange_strong(expected, level,
                                         std::memory_order_relaxed)) {
          buf.push_back(w);
          sc += dv.FwdDegree(w);
          cur = level;
        } else {
          cur = expected;
        }
      }
      // Every frontier predecessor of a level-`level` vertex passes here,
      // so the atomic min sees all of them.
      if (parents && cur == level) AtomicMinI64(&r->parent[w], u);
    };
    for (int64_t idx = bounds[t]; idx < bounds[t + 1]; ++idx) {
      const int64_t u = frontier[idx];
      for (int64_t w : dv.FwdA(u)) visit(u, w);
      for (int64_t w : dv.FwdB(u)) visit(u, w);
    }
    scouts[t] = sc;
  });
  int64_t total = 0;
  int64_t sc = 0;
  for (int t = 0; t < threads; ++t) {
    total += static_cast<int64_t>(bufs[t].size());
    sc += scouts[t];
  }
  next->clear();
  next->reserve(total);
  for (int t = 0; t < threads; ++t) {
    next->insert(next->end(), bufs[t].begin(), bufs[t].end());
  }
  RadixSortI64(*next);
  *new_scout = sc;
  return total;
}

// One bottom-up level over bitmap frontiers. Vertices are processed in
// word-aligned blocks: dist/parent/next-bit writes stay block-local, and
// per-block awake/scout partials merge in block order (exact int sums).
int64_t BottomUp(const DirView& dv, int64_t level, bool parents,
                 const Bitmap& front, Bitmap* next_bm, DenseBfs* r,
                 int64_t* new_scout) {
  const int64_t n = static_cast<int64_t>(r->dist.size());
  const int64_t nblocks = (n + kBlockNodes - 1) / kBlockNodes;
  next_bm->ClearAll();
  std::vector<int64_t> awakes(nblocks, 0), scouts(nblocks, 0);
  auto block = [&](int64_t b) {
    const int64_t lo = b * kBlockNodes;
    const int64_t hi = std::min(n, lo + kBlockNodes);
    int64_t aw = 0, sc = 0;
    for (int64_t w = lo; w < hi; ++w) {
      if (r->dist[w] != kNoDist) continue;
      const int64_t p = MinFrontierParent(dv.BwdA(w), dv.BwdB(w), front);
      if (p < 0) continue;
      r->dist[w] = level;
      if (parents) r->parent[w] = p;
      next_bm->Set(w);
      ++aw;
      sc += dv.FwdDegree(w);
    }
    awakes[b] = aw;
    scouts[b] = sc;
  };
  if (nblocks <= 1 || NumThreads() <= 1) {
    for (int64_t b = 0; b < nblocks; ++b) block(b);
  } else {
    ParallelForDynamic(0, nblocks, block, /*chunk=*/1);
  }
  int64_t aw = 0, sc = 0;
  for (int64_t b = 0; b < nblocks; ++b) {
    aw += awakes[b];
    sc += scouts[b];
  }
  *new_scout = sc;
  return aw;
}

void ListToBitmap(const std::vector<int64_t>& frontier, Bitmap* bm) {
  bm->ClearAll();
  const int64_t m = static_cast<int64_t>(frontier.size());
  if (m < kSeqLevelCutoff || NumThreads() <= 1) {
    for (int64_t v : frontier) bm->Set(v);
  } else {
    ParallelFor(0, m, [&](int64_t i) { bm->SetAtomic(frontier[i]); });
  }
}

// Collects the vertices at distance `level` in ascending order (blocked
// count + prefix + fill).
void LevelToList(const DenseBfs& r, int64_t level, int64_t expected,
                 std::vector<int64_t>* out) {
  const int64_t n = static_cast<int64_t>(r.dist.size());
  out->clear();
  if (expected < kSeqLevelCutoff || NumThreads() <= 1) {
    out->reserve(expected);
    for (int64_t i = 0; i < n; ++i) {
      if (r.dist[i] == level) out->push_back(i);
    }
    return;
  }
  const int64_t nblocks = (n + kBlockNodes - 1) / kBlockNodes;
  std::vector<int64_t> offsets(nblocks + 1, 0);
  ParallelFor(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlockNodes;
    const int64_t hi = std::min(n, lo + kBlockNodes);
    int64_t c = 0;
    for (int64_t i = lo; i < hi; ++i) c += (r.dist[i] == level);
    offsets[b] = c;
  });
  const int64_t total = ExclusivePrefixSum(offsets);
  out->resize(total);
  ParallelFor(0, nblocks, [&](int64_t b) {
    const int64_t lo = b * kBlockNodes;
    const int64_t hi = std::min(n, lo + kBlockNodes);
    int64_t pos = offsets[b];
    for (int64_t i = lo; i < hi; ++i) {
      if (r.dist[i] == level) (*out)[pos++] = i;
    }
  });
}

}  // namespace

DenseBfs Run(const AlgoView& view, int64_t src, BfsDir dir,
             const Options& opts) {
  DenseBfs r;
  const int64_t n = view.NumNodes();
  r.dist.assign(n, kNoDist);
  const bool parents = opts.need_parents;
  if (parents) r.parent.assign(n, kUnsetParent);
  if (src >= 0 && src < n) {
    const DirView dv(view, dir);
    r.dist[src] = 0;
    r.reached = 1;

    std::vector<int64_t> frontier{src}, next;
    Bitmap front_bm(n), next_bm(n);
    bool frontier_is_bitmap = false;
    bool bottom_up = false;
    int64_t awake = 1;
    int64_t prev_awake = std::numeric_limits<int64_t>::max();
    int64_t scout = dv.FwdDegree(src);
    int64_t edges_to_check = dv.TotalFwdArcs();
    int64_t level = 0;

    while (awake > 0) {
      // Deadline-bounded serving: a cancelled query abandons the traversal
      // mid-level; the executor discards the partial result. One TLS load
      // when no token is installed.
      if (cancel::Checkpoint()) break;
      if (opts.stop_at >= 0 && r.dist[opts.stop_at] != kNoDist) break;
      ++level;
      if (!bottom_up) {
        bottom_up = static_cast<double>(scout) * kAlpha >
                    static_cast<double>(edges_to_check);
      } else if (awake < prev_awake &&
                 static_cast<double>(awake) * kBeta < static_cast<double>(n)) {
        // Frontier is shrinking and small again: go back to top-down.
        bottom_up = false;
      }
      int64_t new_awake = 0, new_scout = 0;
      if (bottom_up) {
        if (!frontier_is_bitmap) {
          ListToBitmap(frontier, &front_bm);
          frontier_is_bitmap = true;
        }
        new_awake =
            BottomUp(dv, level, parents, front_bm, &next_bm, &r, &new_scout);
        front_bm.SwapWith(next_bm);
        ++r.bottom_up_steps;
      } else {
        if (frontier_is_bitmap) {
          LevelToList(r, level - 1, awake, &frontier);
          frontier_is_bitmap = false;
        }
        const bool seq =
            NumThreads() <= 1 || scout + awake < kSeqLevelCutoff;
        new_awake = seq ? TopDownSeq(dv, level, parents, frontier, &next, &r,
                                     &new_scout)
                        : TopDownPar(dv, level, parents, frontier, &next, &r,
                                     &new_scout);
        frontier.swap(next);
        ++r.top_down_steps;
      }
      edges_to_check -= scout;
      prev_awake = awake;
      awake = new_awake;
      scout = new_scout;
      r.reached += awake;
      if (awake > 0) r.max_depth = level;
    }
  }
  if (parents) {
    const int64_t nn = static_cast<int64_t>(r.parent.size());
    for (int64_t i = 0; i < nn; ++i) {
      if (r.parent[i] == kUnsetParent) r.parent[i] = -1;
    }
  }
  RINGO_COUNTER_ADD("bfs/runs", 1);
  RINGO_COUNTER_ADD("bfs/top_down_steps", r.top_down_steps);
  RINGO_COUNTER_ADD("bfs/bottom_up_steps", r.bottom_up_steps);
  return r;
}

int64_t SequentialDistances(const AlgoView& view, int64_t src, BfsDir dir,
                            std::vector<int64_t>* dist) {
  const int64_t n = view.NumNodes();
  dist->assign(n, kNoDist);
  if (src < 0 || src >= n) return 0;
  const DirView dv(view, dir);
  std::vector<int64_t> frontier{src}, next;
  (*dist)[src] = 0;
  int64_t reached = 1;
  int64_t level = 0;
  while (!frontier.empty()) {
    if (cancel::Checkpoint()) break;  // Deadline-bounded serving.
    ++level;
    next.clear();
    for (int64_t u : frontier) {
      for (int64_t w : dv.FwdA(u)) {
        if ((*dist)[w] == kNoDist) {
          (*dist)[w] = level;
          next.push_back(w);
        }
      }
      for (int64_t w : dv.FwdB(u)) {
        if ((*dist)[w] == kNoDist) {
          (*dist)[w] = level;
          next.push_back(w);
        }
      }
    }
    reached += static_cast<int64_t>(next.size());
    frontier.swap(next);
  }
  return reached;
}

}  // namespace bfs
}  // namespace ringo
