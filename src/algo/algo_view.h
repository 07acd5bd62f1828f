// AlgoView: a read-optimized CSR snapshot of a dynamic graph, cached on the
// graph behind its mutation stamp (DESIGN.md §9, §11, §12).
//
// The dynamic representations (hash table of nodes, sorted adjacency
// vectors) pay a hash probe per edge access; traversal cost is dominated by
// that machinery, not the algorithm. AlgoView materializes the graph once
// into a NodeIndex (ascending-id dense numbering) plus offset+neighbor
// arrays, so every traversal-style algorithm runs over flat int64 arrays.
// Repeated analytics calls on an unmodified graph reuse the cached snapshot
// (counter "algo_view/hit").
//
// Since §11 the snapshot is two-part: an immutable shared *base* CSR plus a
// per-direction *patch* overlay holding freshly merged neighbor runs for
// the nodes touched by recent ApplyEdgeBatch calls. When a mutation was
// batched and the graph's delta journal covers the stamp gap, Of() patches
// the stale snapshot forward in O(batch + touched nodes) instead of paying
// the O(V + E) rebuild ("algo_view/delta_apply", with "algo_view/
// stale_patch" counting the stale snapshots refreshed that way); delete
// tombstones from the journal annihilate base entries during the per-node
// merge, so reads stay contiguous ascending spans. Batches that *create*
// nodes stay on the delta path too: created ids always sort above every
// pre-existing id (the graph checks its watermark before journaling), so
// the patched view carries an extended NodeIndex whose new rows simply
// append after the base rows. Once the patched-arc fraction crosses
// deltacsr::CompactionFraction, the refresh folds everything into a fresh
// dense base ("algo_view/compact"). Non-journalable mutations (single-edge
// calls, node deletes, table splicing) force a full rebuild
// ("algo_view/build"); "algo_view/invalidate" counts only the stale
// snapshots *discarded* by such a rebuild or a compaction — a delta-patched
// refresh is not an invalidation. deltacsr::SetEnabled(false) disables
// patching entirely — the parity oracle.
//
// Layout invariants (identical for base spans and patch runs):
//   * dense index i corresponds to the i-th smallest node id;
//   * Out(i)/In(i) are ascending spans of dense indices (the adjacency
//     vectors are id-sorted and the id->index map is monotone);
//   * undirected graphs store one neighbor array; In(i) == Out(i).
// Delta-patched views share the base arrays of the snapshot they were
// patched from, and — unless the batch created nodes — its NodeIndex too
// (&node_index() is stable across edge-only patches; a node-creating patch
// installs an extended index that is then shared by further patches).
//
// Thread-safety (DESIGN.md §12): Of() is safe to call from any number of
// threads concurrently with each other AND with one writer mutating the
// graph. The cached (view, stamp) pair lives in the graph's SnapshotCache;
// refreshes are single-flight (a thundering herd of cold readers triggers
// exactly one build — the counters above stay exact) and the flight holds
// the graph's structure lock in shared mode, excluding writers for the
// duration of the build. A returned view is immutable and remains valid as
// long as the caller holds the shared_ptr, no matter how the graph mutates.
#ifndef RINGO_ALGO_ALGO_VIEW_H_
#define RINGO_ALGO_ALGO_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/compact_csr.h"
#include "algo/node_index.h"
#include "graph/delta_journal.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Kill switch for incremental delta-CSR snapshot maintenance (DESIGN.md
// §11). With it on (default), Of() patches a stale cached snapshot forward
// by replaying the graph's delta journal and compacts back into a fresh
// dense base when the patched fraction crosses the compaction threshold.
// With it off, every stale snapshot is rebuilt from scratch (the pre-§11
// behavior); that path is the parity oracle proving delta-patched views
// are structurally identical to full rebuilds. Same discipline as
// radix::SetEnabled.
namespace deltacsr {

// True (default) = stale cached views are delta-patched when the journal
// covers the gap; false = always full rebuild. Reads are relaxed atomics,
// safe from any thread; toggle only between algorithm calls.
bool Enabled();
void SetEnabled(bool on);

// Compaction threshold: once the fraction of arcs served from patch runs
// would exceed this, the next refresh folds everything into a fresh dense
// base instead (counter "algo_view/compact"). Exposed for tests that need
// to force or forbid compaction deterministically.
double CompactionFraction();
void SetCompactionFraction(double fraction);

// RAII toggles for tests and ablations.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

class ScopedCompactionFraction {
 public:
  explicit ScopedCompactionFraction(double fraction)
      : prev_(CompactionFraction()) {
    SetCompactionFraction(fraction);
  }
  ~ScopedCompactionFraction() { SetCompactionFraction(prev_); }
  ScopedCompactionFraction(const ScopedCompactionFraction&) = delete;
  ScopedCompactionFraction& operator=(const ScopedCompactionFraction&) =
      delete;

 private:
  double prev_;
};

}  // namespace deltacsr

// What Out()/In() hand back: a span-shaped view over a neighbor run that
// optionally owns a ref on the pooled scratch buffer the run was decoded
// into (compressed base layout, DESIGN.md §14). On the plain path the ref
// is null and this is just a pointer+length. Converts implicitly to
// std::span<const int64_t> for span-typed helpers — but such a raw span is
// only valid while some NbrSpan over the same run is alive, so bind
// `auto`/NbrSpan, not std::span, when holding a run across further
// Out()/In() calls.
class NbrSpan {
 public:
  using value_type = int64_t;

  NbrSpan() = default;
  NbrSpan(std::span<const int64_t> s) : p_(s.data()), n_(s.size()) {}
  NbrSpan(const int64_t* p, size_t n) : p_(p), n_(n) {}
  NbrSpan(const int64_t* p, size_t n, compactcsr::BufRef buf)
      : buf_(std::move(buf)), p_(p), n_(n) {}

  operator std::span<const int64_t>() const { return {p_, n_}; }
  const int64_t* begin() const { return p_; }
  const int64_t* end() const { return p_ + n_; }
  const int64_t* data() const { return p_; }
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  int64_t operator[](size_t k) const { return p_[k]; }
  int64_t front() const { return p_[0]; }
  int64_t back() const { return p_[n_ - 1]; }

 private:
  compactcsr::BufRef buf_;
  const int64_t* p_ = nullptr;
  size_t n_ = 0;
};

class AlgoView {
 public:
  // Cached accessors: return a snapshot matching the graph's current
  // mutation stamp — reusing, delta-patching, compacting, or rebuilding the
  // cached one as the journal allows. Safe under concurrent readers + one
  // writer (see the header comment).
  static std::shared_ptr<const AlgoView> Of(const DirectedGraph& g);
  static std::shared_ptr<const AlgoView> Of(const UndirectedGraph& g);

  // Uncached full builds (benchmarks, tests). Not synchronized against
  // writers — quiescent graphs only.
  static std::shared_ptr<const AlgoView> Build(const DirectedGraph& g);
  static std::shared_ptr<const AlgoView> Build(const UndirectedGraph& g);

  // Replays net edge ops (insert/delete) plus created node ids onto `prev`,
  // producing a patched view sharing prev's base. Every id in
  // `new_node_ids` must exceed every id prev knows (ascending — the
  // journal's watermark rule); edge ops may reference both old and new ids.
  // Returns nullptr when the projected patched-arc fraction crosses
  // `compact_fraction` or the watermark precondition fails — the caller
  // should compact (full rebuild) instead. Exposed for tests; Of() is the
  // normal entry point.
  static std::shared_ptr<const AlgoView> ApplyDelta(
      const std::shared_ptr<const AlgoView>& prev, std::vector<EdgeOp> ops,
      double compact_fraction, std::vector<NodeId> new_node_ids = {});

  bool directed() const { return directed_; }
  int64_t NumNodes() const { return node_index().size(); }
  // Stored arcs: directed edges once per direction array; undirected edges
  // twice (self-loops once), matching the adjacency vectors.
  int64_t NumOutArcs() const { return num_out_arcs_; }
  int64_t NumInArcs() const { return directed_ ? num_in_arcs_ : num_out_arcs_; }

  // The extended index when the view carries delta-created nodes, else the
  // base index. New rows append after base rows, so dense indices are
  // stable across patches.
  const NodeIndex& node_index() const {
    return ext_ni_ != nullptr ? *ext_ni_ : base_->ni;
  }
  int64_t IndexOf(NodeId id) const { return node_index().IndexOf(id); }
  NodeId IdOf(int64_t index) const { return node_index().IdOf(index); }

  // The graph mutation stamp this snapshot reflects; 0 when the view was
  // built outside the cache (Build/ApplyDelta called directly). Atomic
  // because a canceled-out refresh republishes the same view object at a
  // newer stamp while readers hold it.
  uint64_t snapshot_stamp() const {
    return snapshot_stamp_.load(std::memory_order_relaxed);
  }

  // Ascending spans of dense neighbor indices (patch run if the node was
  // touched by a replayed batch, base span otherwise; delta-created nodes
  // with no patched adjacency read as empty). On a compressed base the run
  // is decoded into pooled thread-local scratch kept alive by the returned
  // NbrSpan's buffer ref.
  NbrSpan Out(int64_t i) const {
    if (static_cast<size_t>(i) < out_patch_.slot.size()) {
      const int32_t s = out_patch_.slot[i];
      if (s >= 0) return out_patch_.Run(s);
    }
    if (i >= base_nodes_) return {};
    if (base_->out_c.has()) {
      return DecodeBase(base_->out_c, base_->out_offsets, i);
    }
    return {base_->out_nbrs.data() + base_->out_offsets[i],
            static_cast<size_t>(base_->out_offsets[i + 1] -
                                base_->out_offsets[i])};
  }
  NbrSpan In(int64_t i) const {
    if (!directed_) return Out(i);
    if (static_cast<size_t>(i) < in_patch_.slot.size()) {
      const int32_t s = in_patch_.slot[i];
      if (s >= 0) return in_patch_.Run(s);
    }
    if (i >= base_nodes_) return {};
    if (base_->in_c.has()) {
      return DecodeBase(base_->in_c, base_->in_offsets, i);
    }
    return {base_->in_nbrs.data() + base_->in_offsets[i],
            static_cast<size_t>(base_->in_offsets[i + 1] -
                                base_->in_offsets[i])};
  }
  // Decode-and-consume iteration: calls fn(u) for each neighbor of i in
  // ascending order — the same values Out(i)/In(i) would yield, in the same
  // order. On a compressed base this fuses the varint decode into the
  // caller's loop, skipping the pooled scratch buffer entirely; sequential
  // whole-graph scans (PageRank's pull is the canonical one) should prefer
  // this over Out()/In(), whose per-call buffer round-trip dominates
  // short runs. Kernels that must hold a run while visiting another
  // (triangle intersection) still need the span form.
  template <typename Fn>
  void ForEachOut(int64_t i, Fn&& fn) const {
    if (static_cast<size_t>(i) < out_patch_.slot.size()) {
      const int32_t s = out_patch_.slot[i];
      if (s >= 0) {
        for (const int64_t u : out_patch_.Run(s)) fn(u);
        return;
      }
    }
    if (i >= base_nodes_) return;
    if (base_->out_c.has()) {
      compactcsr::DecodeRunForEach(
          base_->out_c.bytes.data() + base_->out_c.byte_offsets[i],
          base_->out_offsets[i + 1] - base_->out_offsets[i], fn);
      return;
    }
    const int64_t* p = base_->out_nbrs.data();
    for (int64_t k = base_->out_offsets[i]; k < base_->out_offsets[i + 1];
         ++k) {
      fn(p[k]);
    }
  }
  template <typename Fn>
  void ForEachIn(int64_t i, Fn&& fn) const {
    if (!directed_) {
      ForEachOut(i, fn);
      return;
    }
    if (static_cast<size_t>(i) < in_patch_.slot.size()) {
      const int32_t s = in_patch_.slot[i];
      if (s >= 0) {
        for (const int64_t u : in_patch_.Run(s)) fn(u);
        return;
      }
    }
    if (i >= base_nodes_) return;
    if (base_->in_c.has()) {
      compactcsr::DecodeRunForEach(
          base_->in_c.bytes.data() + base_->in_c.byte_offsets[i],
          base_->in_offsets[i + 1] - base_->in_offsets[i], fn);
      return;
    }
    const int64_t* p = base_->in_nbrs.data();
    for (int64_t k = base_->in_offsets[i]; k < base_->in_offsets[i + 1];
         ++k) {
      fn(p[k]);
    }
  }

  // Degrees are O(1) on every layout: element offsets stay plain even when
  // the neighbor payload is compressed (PageRank divides by out-degree per
  // node per iteration — a decode here would dominate the kernel).
  int64_t OutDegree(int64_t i) const {
    if (static_cast<size_t>(i) < out_patch_.slot.size()) {
      const int32_t s = out_patch_.slot[i];
      if (s >= 0) return out_patch_.offsets[s + 1] - out_patch_.offsets[s];
    }
    if (i >= base_nodes_) return 0;
    return base_->out_offsets[i + 1] - base_->out_offsets[i];
  }
  int64_t InDegree(int64_t i) const {
    if (!directed_) return OutDegree(i);
    if (static_cast<size_t>(i) < in_patch_.slot.size()) {
      const int32_t s = in_patch_.slot[i];
      if (s >= 0) return in_patch_.offsets[s + 1] - in_patch_.offsets[s];
    }
    if (i >= base_nodes_) return 0;
    return base_->in_offsets[i + 1] - base_->in_offsets[i];
  }

  // True when the base neighbor payload is varint-compressed (the layout is
  // frozen at build time from compactcsr::Enabled()).
  bool compressed() const { return base_->out_c.has(); }

  // Bytes held by this snapshot: base arrays (plain or compressed), patch
  // overlays, and the extended index if any. Feeds the mem/graph_bytes and
  // mem/bytes_per_edge gauges at build time.
  int64_t MemoryUsageBytes() const;

  // ---- Delta introspection (gauges, tests, bench tables). ----
  // Number of nodes whose reads are served from patch runs.
  int64_t PatchedNodes() const {
    return static_cast<int64_t>(out_patch_.nodes.size() +
                                (directed_ ? in_patch_.nodes.size() : 0));
  }
  // Arcs served from patch runs.
  int64_t PatchedArcs() const {
    return static_cast<int64_t>(out_patch_.arena.size() +
                                (directed_ ? in_patch_.arena.size() : 0));
  }
  // Fraction of all stored arcs served from patch runs (0 for a fresh
  // base). Node-count-based when the view has no arcs at all.
  double DeltaFraction() const {
    const int64_t total = NumOutArcs() + (directed_ ? NumInArcs() : 0);
    return total == 0 ? 0.0
                      : static_cast<double>(PatchedArcs()) /
                            static_cast<double>(total);
  }

 private:
  // The immutable dense part, shared between a snapshot and every view
  // patched forward from it. The element offsets are always plain; when the
  // compact layout is on, the *_nbrs payloads are replaced by varint delta
  // streams in *_c (the vectors are left empty).
  struct BaseCsr {
    NodeIndex ni;
    std::vector<int64_t> out_offsets;  // n+1 entries.
    std::vector<int64_t> out_nbrs;
    std::vector<int64_t> in_offsets;   // Empty for undirected views.
    std::vector<int64_t> in_nbrs;
    compactcsr::CompressedDir out_c;
    compactcsr::CompressedDir in_c;

    int64_t MemoryUsageBytes() const;
  };

  // Patch overlay for one direction: `nodes` lists the patched dense
  // indices ascending, `slot[i]` maps a dense index to its run (or -1 =
  // base), and runs live back-to-back in `arena` delimited by `offsets`.
  // slot may be shorter than NumNodes() when later node-only batches grew
  // the index without touching this direction; Out/In guard the lookup.
  struct DirPatch {
    std::vector<int32_t> slot;     // Empty when nothing is patched.
    std::vector<int64_t> nodes;    // Ascending patched dense indices.
    std::vector<int64_t> offsets;  // nodes.size() + 1 entries.
    std::vector<int64_t> arena;    // Merged ascending runs.

    std::span<const int64_t> Run(int32_t s) const {
      return {arena.data() + offsets[s],
              static_cast<size_t>(offsets[s + 1] - offsets[s])};
    }
  };

  AlgoView() = default;

  // Refreshes mem/graph_bytes and mem/bytes_per_edge from this snapshot.
  void PublishMemGauges() const;

  void set_snapshot_stamp(uint64_t s) const {
    snapshot_stamp_.store(s, std::memory_order_relaxed);
  }

  // Decodes base run i of a compressed direction into pooled scratch.
  static NbrSpan DecodeBase(const compactcsr::CompressedDir& d,
                            const std::vector<int64_t>& offsets, int64_t i);

  // Full CSR materialization without counters (Build and the compaction
  // path wrap it with the right one).
  template <typename Graph>
  static std::shared_ptr<AlgoView> BuildFull(const Graph& g);
  // Rewrites one direction's patch overlay: union of previously patched
  // nodes and the nodes touched by `ops` (dense, sorted by owner), each
  // merged/copied into a fresh arena in parallel.
  static void PatchDirection(const AlgoView& prev, bool in_dir,
                             const std::vector<EdgeOp>& ops, AlgoView* next);
  template <typename Graph>
  static std::shared_ptr<const AlgoView> CachedOf(const Graph& g);

  bool directed_ = true;
  std::shared_ptr<const BaseCsr> base_;
  // Set when delta batches created nodes since the base was built: the base
  // index extended with the new ids (which all sort after the old ones).
  std::shared_ptr<const NodeIndex> ext_ni_;
  // Rows the base arrays cover; dense indices >= base_nodes_ are
  // delta-created and have no base span.
  int64_t base_nodes_ = 0;
  DirPatch out_patch_;
  DirPatch in_patch_;
  int64_t num_out_arcs_ = 0;
  int64_t num_in_arcs_ = 0;
  mutable std::atomic<uint64_t> snapshot_stamp_{0};
};

}  // namespace ringo

#endif  // RINGO_ALGO_ALGO_VIEW_H_
