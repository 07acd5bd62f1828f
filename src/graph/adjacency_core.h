// AdjacencyCore: the one dynamic-graph implementation behind DirectedGraph
// and UndirectedGraph (DESIGN.md §18).
//
// The paper's §2.2 layout — a hash table of nodes with sorted adjacency —
// with every node's adjacency a *run* in a per-graph arena, one arena per
// direction. The node table (a FlatHashMap keyed by NodeId) maps a node to
// an (offset, size, capacity) triple per direction:
//   * bulk builds (the table→graph conversions, the binary loader) write
//     the sorted runs back to back with exact capacity, and destroying a
//     graph frees a few arrays, not one per node;
//   * a run that must grow past its capacity moves to the arena tail with
//     at least kRunGrowth times its capacity, and its old words become
//     dead; a run that shrinks stays in place;
//   * once an arena's dead words pass kDeadFraction of it (and the node
//     table's slot count, which the rewrite walks), its live runs are
//     rewritten back to back under the exclusive lock, with no stamp
//     change: cached snapshots stay valid.
// Together these move O(1) arena words per inserted arc, amortized. A
// directedness policy picks the arenas: out-runs (arena 0) and in-runs
// (arena 1) for a directed graph; one neighbour run per node, each edge at
// both endpoints (a self-loop once), for an undirected graph.
//
// Span lifetime: GetNode, ForEachNode and ForEachEdge hand out
// std::span<const NodeId> runs into the arenas, valid until the graph's
// next mutation. Bind the returned std::optional to a local before holding
// one of its spans: `for (NodeId v : g.GetNode(u)->out)` reads a member of
// a temporary destroyed before the loop body (C++20), while
// `const auto nd = g.GetNode(u); for (NodeId v : nd->out)` is fine.
//
// Concurrency (DESIGN.md §12): mutating entry points serialize behind an
// internal structure lock (exclusive), and the cached-snapshot single
// flight in algo/algo_view.* builds while holding the same lock in shared
// mode, so any number of query threads can pin consistent snapshots via
// AlgoView::Of() while one writer streams mutations. Direct structural
// *reads* (GetNode, HasEdge, ForEachNode, ...) take no lock: they are safe
// against each other but NOT against a concurrent writer.
#ifndef RINGO_GRAPH_ADJACENCY_CORE_H_
#define RINGO_GRAPH_ADJACENCY_CORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "graph/delta_journal.h"
#include "graph/edge_batch.h"
#include "graph/graph_defs.h"
#include "graph/snapshot_cache.h"
#include "storage/flat_hash_map.h"
#include "util/default_init.h"

namespace ringo {

// Growth factor of a run that outgrows its capacity. Set on two streams
// over LiveJournalSim 0.1 (100K edges): an edge-by-edge AddEdge build and
// 400 batches of 1000 inserts and 1000 deletes (EXPERIMENTS.md "One
// adjacency core"). Against 1.5, doubling moved 1.9-2.2x fewer arena
// words and built 1.4x faster, for arenas 23-28% larger.
inline constexpr int64_t kRunGrowth = 2;

// Share of an arena that dead words may reach before the arena is
// rewritten. Set on the same two streams: 1/8 moved 1.6-1.8x the words of
// 1/4 for arenas 15-20% smaller, and 1/2 left the arenas 1.5-1.6x larger.
inline constexpr double kDeadFraction = 0.25;

// One node's run in one direction's arena: words [off, off + size) hold its
// neighbours, strictly ascending; [off + size, off + cap) are slack.
struct AdjRun {
  int64_t off = 0;
  int64_t size = 0;
  int64_t cap = 0;
};

// A graph's whole adjacency in the form the bulk builders produce: the
// strictly ascending node list and, per direction, every node's strictly
// ascending run laid back to back. Node nodes[i]'s run in direction d is
// arcs[d][begin[d][i], begin[d][i + 1]); begin[d] has nodes.size() + 1
// entries and ends at arcs[d].size(). Every neighbour is itself in `nodes`,
// and the runs mirror each other: a directed graph's in-runs are the
// transpose of its out-runs, an undirected graph's runs are symmetric.
template <int kDirs>
struct SortedRuns {
  std::vector<NodeId> nodes;
  std::array<PooledVector<NodeId>, kDirs> arcs;
  std::array<PooledVector<int64_t>, kDirs> begin;
};

// Directed: arena 0 holds out-runs, arena 1 in-runs.
struct DirectedPolicy {
  static constexpr int kDirs = 2;
  struct NodeView {
    std::span<const NodeId> in;   // Ascending.
    std::span<const NodeId> out;  // Ascending.
  };
  static NodeView MakeView(const std::array<std::span<const NodeId>, 2>& r) {
    return {r[1], r[0]};
  }
};

// Undirected: one neighbour run per node.
struct UndirectedPolicy {
  static constexpr int kDirs = 1;
  struct NodeView {
    std::span<const NodeId> nbrs;  // Ascending.
  };
  static NodeView MakeView(const std::array<std::span<const NodeId>, 1>& r) {
    return {r[0]};
  }
};

// What a graph's arenas hold, summed over directions.
struct ArenaStats {
  int64_t words = 0;        // Live, slack and dead words.
  int64_t dead_words = 0;   // Words of abandoned runs, reclaimed by compaction.
  int64_t relocations = 0;  // Runs moved to an arena tail to grow.
  int64_t compactions = 0;  // Arena rewrites.
};

template <typename Policy>
class AdjacencyCore {
 public:
  static constexpr int kDirs = Policy::kDirs;
  using NodeView = typename Policy::NodeView;

  AdjacencyCore() = default;

  // Builds the graph from sorted runs in one pass: the node table is
  // inserted in ascending id order, and the arcs become the arenas as they
  // are, every run at exact capacity.
  explicit AdjacencyCore(SortedRuns<kDirs> runs);

  // Copy/move transfer the structural state (nodes, edge count, stamp,
  // journal) but not the synchronization objects or the cached snapshot —
  // the copy, and the target of an assignment, start with a cold cache
  // and fresh locks. A copy's arenas hold the live runs back to back (no
  // dead words). A moved-from graph is empty with a cold cache, ready for
  // reuse. The source is locked for the duration, but copying a graph that
  // is concurrently *written* is still a logical race; copy quiescent
  // graphs.
  AdjacencyCore(const AdjacencyCore& other);
  AdjacencyCore& operator=(const AdjacencyCore& other);
  AdjacencyCore(AdjacencyCore&& other) noexcept;
  AdjacencyCore& operator=(AdjacencyCore&& other) noexcept;

  // Pre-sizes the node hash table for `n` nodes.
  void ReserveNodes(int64_t n) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    nodes_.Reserve(n);
  }

  // Adds a node with the given id; returns false if it already exists.
  bool AddNode(NodeId id);

  // Adds a fresh node with an unused id and returns it.
  NodeId AddNode();

  // Adds the edge src→dst ({src, dst} when undirected), creating missing
  // endpoints. Returns true if the edge was new, false if it already
  // existed. Bumps the mutation stamp exactly once per effective mutation
  // (a no-op never bumps).
  bool AddEdge(NodeId src, NodeId dst);

  // Removes a single edge; O(degree). Returns false if absent.
  bool DelEdge(NodeId src, NodeId dst);

  // Applies a whole batch of edge mutations at once: inserts first, then
  // deletes (a pair in both lists therefore ends up absent; if it also
  // pre-existed the batch nets to a delete, otherwise to nothing). For an
  // undirected graph (u, v) and (v, u) name the same edge. Both lists are
  // radix-sorted and deduped, missing insert endpoints are created (as
  // AddEdge would), and each touched run is rewritten with one linear
  // merge. Runs that outgrow their capacity get tail space in one arena
  // growth first, then touched runs merge in parallel. Bumps the mutation
  // stamp at most once, and journals the net ops (plus any created node
  // ids, which always land above the id watermark) so the cached AlgoView
  // can be patched instead of rebuilt (DESIGN.md §11).
  EdgeBatchStats ApplyEdgeBatch(std::vector<Edge> inserts,
                                std::vector<Edge> deletes);

  // Removes a node and all incident edges. Returns false if absent.
  bool DelNode(NodeId id);

  bool HasNode(NodeId id) const { return nodes_.Contains(id); }
  bool HasEdge(NodeId src, NodeId dst) const;

  int64_t NumNodes() const { return nodes_.size(); }
  // Each edge counted once (an undirected edge too).
  int64_t NumEdges() const { return num_edges_; }

  // The node's ascending runs, or nullopt for a missing node. The spans
  // stay valid until the next mutation (see the header comment).
  std::optional<NodeView> GetNode(NodeId id) const {
    const Slot* s = nodes_.Find(id);
    if (s == nullptr) return std::nullopt;
    return View(*s);
  }

  // All node ids, unsorted (hash order). See SortedNodeIds for stable order.
  std::vector<NodeId> NodeIds() const { return nodes_.Keys(); }
  std::vector<NodeId> SortedNodeIds() const;

  // Applies fn(NodeId, const NodeView&) to every node (hash order).
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    nodes_.ForEach([&](NodeId id, const Slot& s) { fn(id, View(s)); });
  }

  // Applies fn(u, v) to every edge: for a directed graph every arc u→v,
  // grouped by source with ascending destinations; for an undirected graph
  // every edge once, as u <= v.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    nodes_.ForEach([&](NodeId u, const Slot& s) {
      for (const NodeId v : Run(0, s)) {
        if (kDirs == 2 || u <= v) fn(u, v);
      }
    });
  }

  // Structure-only heap usage in bytes (node table + arenas).
  int64_t MemoryUsageBytes() const;

  // Structural equality: same node set and same edge set.
  bool SameStructure(const AdjacencyCore& other) const;

  ArenaStats arena_stats() const;

  // --------------------------------------------------------------------
  // Mutation stamp + cached analytics view (DESIGN.md §9, §12).
  //
  // Every structural mutation bumps the stamp under the exclusive
  // structure lock; read-optimized snapshots (algo/algo_view.h) are cached
  // in `view_cache()` keyed by the stamp value at build time. The snapshot
  // single flight holds ReadLockStructure() (shared) while it reads the
  // structure, journal, and stamp, so writers and snapshot builds exclude
  // each other and a build observes one consistent stamp.
  uint64_t MutationStamp() const {
    return stamp_.load(std::memory_order_acquire);
  }

  // The single-flight snapshot cache slot (type-erased; the algo layer
  // stores the AlgoView here).
  SnapshotCache& view_cache() const { return cache_; }

  // Shared (reader) hold on the structure lock for the duration of a
  // snapshot build: blocks writers, admits other builders' reads.
  std::shared_lock<std::shared_mutex> ReadLockStructure() const {
    return std::shared_lock<std::shared_mutex>(structure_mu_);
  }

  // Effective edge ops of recent ApplyEdgeBatch calls, replayable onto a
  // cached snapshot (DESIGN.md §11); undirected ops are normalized u <= v.
  // Callers must hold ReadLockStructure() (the snapshot single flight
  // does). Trimming is const because it only discards batches already
  // folded into the published snapshot.
  const DeltaJournal& delta_journal() const { return journal_; }
  void TrimDeltaJournal(uint64_t stamp) const { journal_.TrimThrough(stamp); }

 protected:
  // Length of `id`'s run in direction d; 0 for a missing node.
  int64_t RunSize(int d, NodeId id) const {
    const Slot* s = nodes_.Find(id);
    return s == nullptr ? 0 : (*s)[d].size;
  }

 private:
  using Slot = std::array<AdjRun, kDirs>;
  // The direction an arc's reverse lands in: a directed arc u→v is v in
  // u's out-run and u in v's in-run; an undirected edge is in both
  // endpoints' single run.
  static constexpr int kMirror = kDirs - 1;

  std::span<const NodeId> Run(int d, const Slot& s) const {
    return {arena_[d].data() + s[d].off, static_cast<size_t>(s[d].size)};
  }
  NodeView View(const Slot& s) const {
    std::array<std::span<const NodeId>, kDirs> runs;
    for (int d = 0; d < kDirs; ++d) runs[d] = Run(d, s);
    return Policy::MakeView(runs);
  }

  // Inserts the node without bumping the stamp (mutation entry points bump
  // exactly once after they know the mutation was effective). Caller holds
  // the exclusive structure lock, as for every helper below.
  bool EnsureNode(NodeId id);
  bool AddNodeLocked(NodeId id);

  // Sorted insert / erase of v in run r of arena d; false when v was
  // already present / absent. Insert may move the run (GrowRun).
  bool RunInsert(int d, AdjRun& r, NodeId v);
  bool RunErase(int d, AdjRun& r, NodeId v);
  // Gives r room for `need` words: extends it in place when it ends the
  // arena, otherwise moves it to the tail and leaves its old words dead.
  void GrowRun(int d, AdjRun& r, int64_t need);
  // Merges owner-keyed net ops (sorted by (u, v)) into arena d's runs.
  void MergeOps(int d, const std::vector<EdgeOp>& ops);
  // Rewrites every arena whose dead words passed the threshold.
  void MaybeCompact();
  // Lays the runs of arena d out back to back, reading them from `from`
  // (the slots' offsets point into it) and keeping every capacity.
  void Repack(int d, const PooledVector<NodeId>& from);

  // Every non-batch structural mutation goes through here (exclusive lock
  // held): one stamp bump and a journal invalidation (the mutation is not
  // replayable, so a cached snapshot can only be refreshed by a rebuild).
  void BumpStamp() {
    stamp_.fetch_add(1, std::memory_order_release);
    journal_.Invalidate();
  }

  // Copies/moves everything but the lock and the snapshot cache.
  void CopyFrom(const AdjacencyCore& other);
  void MoveFrom(AdjacencyCore& other);

  // The node table and the arenas live in the block pool (DESIGN.md §20).
  FlatHashMap<NodeId, Slot, std::hash<NodeId>, PoolAllocator<Slot>> nodes_;
  std::array<PooledVector<NodeId>, kDirs> arena_;
  std::array<int64_t, kDirs> dead_{};
  int64_t relocations_ = 0;
  int64_t compactions_ = 0;
  int64_t num_edges_ = 0;
  NodeId next_node_id_ = 0;
  // Starts at 1 so a default-constructed cache (stamp 0) is never fresh.
  std::atomic<uint64_t> stamp_{1};
  mutable DeltaJournal journal_;
  // Writers exclusive, snapshot builds shared (DESIGN.md §12).
  mutable std::shared_mutex structure_mu_;
  mutable SnapshotCache cache_;
};

extern template class AdjacencyCore<DirectedPolicy>;
extern template class AdjacencyCore<UndirectedPolicy>;

}  // namespace ringo

#endif  // RINGO_GRAPH_ADJACENCY_CORE_H_
