// UndirectedGraph: hash-table-of-nodes representation with one sorted
// adjacency vector per node. Each edge {u, v} appears in both endpoints'
// vectors (a self-loop appears once). Used for triangle counting,
// clustering coefficients, k-core and community algorithms.
//
// Concurrency follows DirectedGraph (DESIGN.md §12): mutators serialize
// behind an exclusive structure lock, the snapshot single flight builds
// under the same lock in shared mode, and unlocked structural reads are
// only safe against other readers — concurrent analytics must pin a
// snapshot via AlgoView::Of().
#ifndef RINGO_GRAPH_UNDIRECTED_GRAPH_H_
#define RINGO_GRAPH_UNDIRECTED_GRAPH_H_

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

class DirectedGraph;

class UndirectedGraph {
 public:
  struct NodeData {
    std::vector<NodeId> nbrs;  // Sorted ascending.
  };
  using NodeTable = FlatHashMap<NodeId, NodeData>;

  UndirectedGraph() = default;

  // Same contract as DirectedGraph: structural state transfers, sync
  // objects and the snapshot cache start fresh (also on the target of an
  // assignment), a moved-from graph is empty; copy quiescent graphs.
  UndirectedGraph(const UndirectedGraph& other);
  UndirectedGraph& operator=(const UndirectedGraph& other);
  UndirectedGraph(UndirectedGraph&& other) noexcept;
  UndirectedGraph& operator=(UndirectedGraph&& other) noexcept;

  void ReserveNodes(int64_t n) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    nodes_.Reserve(n);
  }

  bool AddNode(NodeId id);
  NodeId AddNode();

  // Adds the undirected edge {src, dst}, creating missing endpoints.
  // Returns true if new.
  bool AddEdge(NodeId src, NodeId dst);
  bool DelEdge(NodeId src, NodeId dst);

  // Batched counterpart of AddEdge/DelEdge: inserts first, then deletes.
  // Edge pairs are unordered here — (u, v) and (v, u) name the same edge
  // and are normalized before dedup. See DirectedGraph::ApplyEdgeBatch and
  // DESIGN.md §11 for the full contract (single stamp bump, journaled net
  // ops + created node ids, parallel per-node merges).
  EdgeBatchStats ApplyEdgeBatch(std::vector<Edge> inserts,
                                std::vector<Edge> deletes);

  bool DelNode(NodeId id);

  bool HasNode(NodeId id) const { return nodes_.Contains(id); }
  bool HasEdge(NodeId src, NodeId dst) const;

  int64_t NumNodes() const { return nodes_.size(); }
  // Each undirected edge counted once.
  int64_t NumEdges() const { return num_edges_; }

  int64_t Degree(NodeId id) const;
  const NodeData* GetNode(NodeId id) const { return nodes_.Find(id); }

  std::vector<NodeId> NodeIds() const { return nodes_.Keys(); }
  std::vector<NodeId> SortedNodeIds() const;

  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    nodes_.ForEach(fn);
  }

  // Applies fn(u, v) once per undirected edge with u <= v.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    nodes_.ForEach([&](NodeId u, const NodeData& nd) {
      for (NodeId v : nd.nbrs) {
        if (u <= v) fn(u, v);
      }
    });
  }

  const NodeTable& node_table() const { return nodes_; }
  NodeTable& mutable_node_table() {
    {
      std::unique_lock<std::shared_mutex> lk(structure_mu_);
      BumpStamp();
    }
    return nodes_;
  }
  void BumpEdgeCount(int64_t count) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    num_edges_ += count;
    BumpStamp();
  }
  void NoteMaxNodeId(NodeId id) {
    std::unique_lock<std::shared_mutex> lk(structure_mu_);
    next_node_id_ = WatermarkAfter(next_node_id_, id);
  }

  int64_t MemoryUsageBytes() const;
  bool SameStructure(const UndirectedGraph& other) const;

  // Mutation stamp + cached analytics view; see DirectedGraph and
  // DESIGN.md §9, §12 for the contract.
  uint64_t MutationStamp() const {
    return stamp_.load(std::memory_order_acquire);
  }
  SnapshotCache& view_cache() const { return cache_; }
  std::shared_lock<std::shared_mutex> ReadLockStructure() const {
    return std::shared_lock<std::shared_mutex>(structure_mu_);
  }

  // Replayable batch ops (normalized u <= v); see DirectedGraph.
  const DeltaJournal& delta_journal() const { return journal_; }
  void TrimDeltaJournal(uint64_t stamp) const { journal_.TrimThrough(stamp); }

 private:
  static bool SortedInsert(std::vector<NodeId>& vec, NodeId v);
  static bool SortedErase(std::vector<NodeId>& vec, NodeId v);

  // Inserts the node without bumping the stamp; see DirectedGraph. Caller
  // holds the exclusive structure lock.
  bool EnsureNode(NodeId id);
  bool AddNodeLocked(NodeId id);

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

#endif  // RINGO_GRAPH_UNDIRECTED_GRAPH_H_
