// DirectedGraph: the Ringo in-memory graph representation (§2.2).
//
// The graph is a hash table of nodes; every node keeps two *sorted*
// adjacency vectors (in-neighbors and out-neighbors). This balances the
// paper's two opposing requirements:
//   * fast neighborhood access — adjacency is contiguous and sorted, so
//     membership tests are O(log deg) and intersections (triangles) are
//     linear merges;
//   * dynamic updates — deleting an edge costs O(deg), not O(|E|) as in
//     CSR (see graph/csr_graph.h for that baseline).
//
// Space is comparable to CSR: 2 vectors per node + one hash slot.
//
// Semantics: simple directed graph. Self-loops are allowed; parallel
// (duplicate) edges are not.
//
// Concurrency (DESIGN.md §12): mutating entry points serialize behind an
// internal structure lock (exclusive), and the cached-snapshot single
// flight in algo/algo_view.* builds while holding the same lock in shared
// mode — so any number of query threads can pin consistent snapshots via
// AlgoView::Of() while one writer streams mutations. Direct structural
// *reads* (GetNode, HasEdge, ForEachNode, ...) take no lock: they are safe
// against each other but NOT against a concurrent writer; concurrent
// analytics must go through a pinned snapshot, which is immutable.
// mutable_node_table() splicing likewise requires external quiescence.
#ifndef RINGO_GRAPH_DIRECTED_GRAPH_H_
#define RINGO_GRAPH_DIRECTED_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "graph/delta_journal.h"
#include "graph/edge_batch.h"
#include "graph/graph_defs.h"
#include "graph/snapshot_cache.h"
#include "storage/flat_hash_map.h"

namespace ringo {

class DirectedGraph {
 public:
  struct NodeData {
    std::vector<NodeId> in;   // Sorted ascending.
    std::vector<NodeId> out;  // Sorted ascending.
  };
  using NodeTable = FlatHashMap<NodeId, NodeData>;

  DirectedGraph() = default;

  // Copy/move transfer the structural state (nodes, edge count, stamp,
  // journal) but not the synchronization objects or the cached snapshot —
  // the copy, and the target of an assignment, start with a cold cache
  // and fresh locks. A moved-from graph is empty with a cold cache, ready
  // for reuse. The source is locked for the duration, but copying a graph
  // that is concurrently *written* is still a logical race; copy
  // quiescent graphs.
  DirectedGraph(const DirectedGraph& other);
  DirectedGraph& operator=(const DirectedGraph& other);
  DirectedGraph(DirectedGraph&& other) noexcept;
  DirectedGraph& operator=(DirectedGraph&& other) noexcept;

  // Pre-sizes the node hash table for `n` nodes.
  void ReserveNodes(int64_t n) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    nodes_.Reserve(n);
  }

  // Adds a node with the given id; returns false if it already exists.
  bool AddNode(NodeId id);

  // Adds a fresh node with an unused id and returns it.
  NodeId AddNode();

  // Adds the edge src→dst, creating missing endpoints. Returns true if the
  // edge was new, false if it already existed. Bumps the mutation stamp
  // exactly once per effective mutation (a no-op never bumps).
  bool AddEdge(NodeId src, NodeId dst);

  // Removes a single edge; O(deg). Returns false if absent.
  bool DelEdge(NodeId src, NodeId dst);

  // Applies a whole batch of edge mutations at once: inserts first, then
  // deletes (a pair in both lists therefore ends up absent; if it also
  // pre-existed the batch nets to a delete, otherwise to nothing). Both
  // lists are radix-sorted and deduped, missing insert endpoints are
  // created (as AddEdge would), and each touched node's adjacency vector is
  // rewritten with one linear merge — touched nodes update in parallel.
  // Bumps the mutation stamp at most once, and journals the net ops (plus
  // any created node ids, which always land above the id watermark) so the
  // cached AlgoView can be patched instead of rebuilt (DESIGN.md §11).
  EdgeBatchStats ApplyEdgeBatch(std::vector<Edge> inserts,
                                std::vector<Edge> deletes);

  // Removes a node and all incident edges. Returns false if absent.
  bool DelNode(NodeId id);

  bool HasNode(NodeId id) const { return nodes_.Contains(id); }
  bool HasEdge(NodeId src, NodeId dst) const;

  int64_t NumNodes() const { return nodes_.size(); }
  int64_t NumEdges() const { return num_edges_; }

  // Degree queries; 0 for missing nodes.
  int64_t OutDegree(NodeId id) const;
  int64_t InDegree(NodeId id) const;

  // Neighborhood access; nullptr for missing nodes. Vectors are sorted.
  const NodeData* GetNode(NodeId id) const { return nodes_.Find(id); }

  // All node ids, unsorted (hash order). See SortedNodeIds for stable order.
  std::vector<NodeId> NodeIds() const { return nodes_.Keys(); }
  std::vector<NodeId> SortedNodeIds() const;

  // Applies fn(NodeId, const NodeData&) to every node.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    nodes_.ForEach(fn);
  }

  // Applies fn(src, dst) to every directed edge (grouped by source, each
  // source's destinations in ascending order).
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    nodes_.ForEach([&](NodeId src, const NodeData& nd) {
      for (NodeId dst : nd.out) fn(src, dst);
    });
  }

  // Direct slot access to the node table for OpenMP partitioned loops.
  // The mutable accessor bumps the mutation stamp because callers use it to
  // splice structure in directly (conversion, IO loaders); the splicing
  // itself happens outside any lock, so it requires quiescence.
  const NodeTable& node_table() const { return nodes_; }
  NodeTable& mutable_node_table() {
    {
      std::unique_lock<std::shared_mutex> lk(structure_mu_);
      BumpStamp();
    }
    return nodes_;
  }

  // Registers `count` edges added externally via mutable_node_table() (the
  // sort-first conversion fills adjacency vectors directly, §2.4).
  void BumpEdgeCount(int64_t count) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    num_edges_ += count;
    BumpStamp();
  }
  void NoteMaxNodeId(NodeId id) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    next_node_id_ = WatermarkAfter(next_node_id_, id);
  }

  // Structure-only heap usage in bytes (node table + adjacency vectors).
  int64_t MemoryUsageBytes() const;

  // Structural equality: same node set and same edge set.
  bool SameStructure(const DirectedGraph& other) const;

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
  // cached snapshot (DESIGN.md §11). Callers must hold ReadLockStructure()
  // (the snapshot single flight does). Trimming is const because it only
  // discards batches already folded into the published snapshot.
  const DeltaJournal& delta_journal() const { return journal_; }
  void TrimDeltaJournal(uint64_t stamp) const { journal_.TrimThrough(stamp); }

 private:
  // Inserts v into sorted vec if absent; returns false if present.
  static bool SortedInsert(std::vector<NodeId>& vec, NodeId v);
  static bool SortedErase(std::vector<NodeId>& vec, NodeId v);
  static bool SortedContains(const std::vector<NodeId>& vec, NodeId v);

  // Inserts the node without bumping the stamp (mutation entry points bump
  // exactly once after they know the mutation was effective). Caller holds
  // the exclusive structure lock.
  bool EnsureNode(NodeId id);
  bool AddNodeLocked(NodeId id);

  // Every non-batch structural mutation goes through here (exclusive lock
  // held): one stamp bump and a journal invalidation (the mutation is not
  // replayable, so a cached snapshot can only be refreshed by a rebuild).
  void BumpStamp() {
    stamp_.fetch_add(1, std::memory_order_release);
    journal_.Invalidate();
  }

  NodeTable nodes_;
  int64_t num_edges_ = 0;
  NodeId next_node_id_ = 0;
  // Starts at 1 so a default-constructed cache (stamp 0) is never fresh.
  std::atomic<uint64_t> stamp_{1};
  mutable DeltaJournal journal_;
  // Writers exclusive, snapshot builds shared (DESIGN.md §12).
  mutable std::shared_mutex structure_mu_;
  mutable SnapshotCache cache_;
};

}  // namespace ringo

#endif  // RINGO_GRAPH_DIRECTED_GRAPH_H_
