#include "graph/undirected_graph.h"

#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

int64_t JournalCap(int64_t num_edges) {
  return std::max<int64_t>(4096, num_edges / 2);
}

// Unordered edge pairs: (u, v) and (v, u) name the same edge, so batches
// are normalized to u <= v before sorting/deduping (and journaled that way).
void Normalize(std::vector<Edge>& edges) {
  for (Edge& e : edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
}

}  // namespace

UndirectedGraph::UndirectedGraph(const UndirectedGraph& other) {
  std::shared_lock<std::shared_mutex> lk(other.structure_mu_);
  nodes_ = other.nodes_;
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = other.journal_;
}

UndirectedGraph& UndirectedGraph::operator=(const UndirectedGraph& other) {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  nodes_ = other.nodes_;
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = other.journal_;
  cache_.Reset();
  return *this;
}

UndirectedGraph::UndirectedGraph(UndirectedGraph&& other) noexcept {
  std::unique_lock<std::shared_mutex> lk(other.structure_mu_);
  nodes_ = std::move(other.nodes_);
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = std::move(other.journal_);
  other.num_edges_ = 0;
  other.next_node_id_ = 0;
  other.journal_.Invalidate();
  other.cache_.Reset();
}

UndirectedGraph& UndirectedGraph::operator=(UndirectedGraph&& other) noexcept {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  nodes_ = std::move(other.nodes_);
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = std::move(other.journal_);
  other.num_edges_ = 0;
  other.next_node_id_ = 0;
  other.journal_.Invalidate();
  cache_.Reset();
  other.cache_.Reset();
  return *this;
}

bool UndirectedGraph::SortedInsert(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

bool UndirectedGraph::SortedErase(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

bool UndirectedGraph::EnsureNode(NodeId id) {
  const bool inserted = nodes_.Insert(id, NodeData{}).second;
  if (inserted) next_node_id_ = WatermarkAfter(next_node_id_, id);
  return inserted;
}

bool UndirectedGraph::AddNodeLocked(NodeId id) {
  const bool inserted = EnsureNode(id);
  if (inserted) BumpStamp();
  return inserted;
}

bool UndirectedGraph::AddNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  return AddNodeLocked(id);
}

NodeId UndirectedGraph::AddNode() {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // O(1) amortized: EnsureNode keeps the watermark past every insert.
  const NodeId id = UnusedNodeId(nodes_, &next_node_id_);
  AddNodeLocked(id);
  return id;
}

bool UndirectedGraph::AddEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // One bump per effective mutation; a no-op insert never bumps.
  EnsureNode(src);
  EnsureNode(dst);
  if (!SortedInsert(nodes_.Find(src)->nbrs, dst)) return false;
  if (src != dst) SortedInsert(nodes_.Find(dst)->nbrs, src);
  ++num_edges_;
  BumpStamp();
  return true;
}

bool UndirectedGraph::DelEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  NodeData* s = nodes_.Find(src);
  if (s == nullptr || !SortedErase(s->nbrs, dst)) return false;
  if (src != dst) SortedErase(nodes_.Find(dst)->nbrs, src);
  --num_edges_;
  BumpStamp();
  return true;
}

bool UndirectedGraph::DelNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  NodeData* nd = nodes_.Find(id);
  if (nd == nullptr) return false;
  num_edges_ -= static_cast<int64_t>(nd->nbrs.size());
  for (NodeId v : nd->nbrs) {
    if (v == id) continue;  // Self-loop: nothing to detach elsewhere.
    SortedErase(nodes_.Find(v)->nbrs, id);
  }
  nodes_.Erase(id);
  BumpStamp();
  return true;
}

EdgeBatchStats UndirectedGraph::ApplyEdgeBatch(std::vector<Edge> inserts,
                                               std::vector<Edge> deletes) {
  trace::Span span("Graph/ApplyEdgeBatch");
  span.AddAttr("inserts_raw", static_cast<int64_t>(inserts.size()));
  span.AddAttr("deletes_raw", static_cast<int64_t>(deletes.size()));
  EdgeBatchStats stats;
  {
    trace::Span s("Graph/ApplyEdgeBatch/sort_dedup");
    Normalize(inserts);
    Normalize(deletes);
    edgebatch::SortDedup(inserts);
    edgebatch::SortDedup(deletes);
  }

  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // A created id at or above this watermark lies above every id held
  // before the batch, so the batch stays journal-replayable even when it
  // creates nodes (DESIGN.md §11); see DirectedGraph for why saturation
  // keeps this sound.
  const NodeId pre_watermark = next_node_id_;
  std::vector<NodeId> created;

  // Net ops over normalized pairs; same inserts-then-deletes semantics and
  // merged sorted walk as the directed batch (ops come out (u, v)-sorted,
  // and runs sharing a first endpoint reuse one adjacency lookup).
  std::vector<EdgeOp> ops;
  {
    trace::Span s("Graph/ApplyEdgeBatch/resolve");
    // One EnsureNode per distinct endpoint, as in the directed batch.
    {
      bool have_last = false;
      NodeId last = 0;
      std::vector<NodeId> seconds;
      seconds.reserve(inserts.size());
      for (const Edge& e : inserts) {
        if (!have_last || e.first != last) {
          if (EnsureNode(e.first)) created.push_back(e.first);
          last = e.first;
          have_last = true;
        }
        seconds.push_back(e.second);
      }
      RadixSortI64(seconds);
      seconds.erase(std::unique(seconds.begin(), seconds.end()),
                    seconds.end());
      for (const NodeId v : seconds) {
        if (EnsureNode(v)) created.push_back(v);
      }
      stats.new_nodes = static_cast<int64_t>(created.size());
    }

    ops.reserve(inserts.size() + deletes.size());
    NodeId cached_u = -1;
    const NodeData* cached_nd = nullptr;
    const auto has = [&](const Edge& e) {
      if (e.first != cached_u) {
        cached_u = e.first;
        cached_nd = nodes_.Find(e.first);
      }
      return cached_nd != nullptr &&
             std::binary_search(cached_nd->nbrs.begin(),
                                cached_nd->nbrs.end(), e.second);
    };
    size_t ii = 0, di = 0;
    while (ii < inserts.size() || di < deletes.size()) {
      const bool ins_next =
          di == deletes.size() ||
          (ii < inserts.size() && inserts[ii] < deletes[di]);
      if (ins_next) {
        if (!has(inserts[ii])) ops.push_back(
            {inserts[ii].first, inserts[ii].second, +1});
        ++ii;
      } else {
        if (ii < inserts.size() && inserts[ii] == deletes[di]) {
          ++ii;  // Delete wins over the same pair's insert.
        }
        if (has(deletes[di])) ops.push_back(
            {deletes[di].first, deletes[di].second, -1});
        ++di;
      }
    }
    for (const EdgeOp& o : ops) (o.op > 0 ? stats.inserted : stats.deleted)++;
  }

  if (!stats.Changed()) return stats;

  if (!ops.empty()) {
    trace::Span apply_span("Graph/ApplyEdgeBatch/apply");
    // Each undirected op lands in both endpoints' vectors (self-loops in
    // one), so expand to owner-keyed adjacency ops before grouping.
    std::vector<EdgeOp> adj_ops;
    adj_ops.reserve(2 * ops.size());
    for (const EdgeOp& o : ops) {
      adj_ops.push_back(o);
      if (o.u != o.v) adj_ops.push_back({o.v, o.u, o.op});
    }
    edgebatch::SortOps(adj_ops);
    const std::vector<int64_t> groups = edgebatch::GroupByNode(adj_ops);
    const int64_t ngroups = static_cast<int64_t>(groups.size()) - 1;
    ParallelForDynamic(0, ngroups, [&](int64_t k) {
      NodeData* nd = nodes_.Find(adj_ops[groups[k]].u);
      edgebatch::MergeApplyRun(nd->nbrs, adj_ops.data() + groups[k],
                               adj_ops.data() + groups[k + 1]);
    });
    num_edges_ += stats.inserted - stats.deleted;
  }

  // Created nodes journal alongside the edge ops as long as every new id
  // lands above the pre-batch watermark; a batch that resurrects a lower id
  // (possible after DelNode) is not replayable and invalidates instead.
  stamp_.fetch_add(1, std::memory_order_release);
  RadixSortI64(created);
  if (created.empty() || created.front() >= pre_watermark) {
    edgebatch::SortOps(ops);
    journal_.AppendBatch(stamp_.load(std::memory_order_relaxed),
                         std::move(ops), JournalCap(num_edges_),
                         std::move(created));
  } else {
    journal_.Invalidate();
  }

  RINGO_COUNTER_ADD("graph/edge_batches", 1);
  RINGO_COUNTER_ADD("graph/batch_inserts", stats.inserted);
  RINGO_COUNTER_ADD("graph/batch_deletes", stats.deleted);
  span.AddAttr("inserted", stats.inserted);
  span.AddAttr("deleted", stats.deleted);
  span.AddAttr("new_nodes", stats.new_nodes);
  return stats;
}

bool UndirectedGraph::HasEdge(NodeId src, NodeId dst) const {
  const NodeData* s = nodes_.Find(src);
  return s != nullptr &&
         std::binary_search(s->nbrs.begin(), s->nbrs.end(), dst);
}

int64_t UndirectedGraph::Degree(NodeId id) const {
  const NodeData* nd = nodes_.Find(id);
  return nd == nullptr ? 0 : static_cast<int64_t>(nd->nbrs.size());
}

std::vector<NodeId> UndirectedGraph::SortedNodeIds() const {
  std::vector<NodeId> ids = nodes_.Keys();
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t UndirectedGraph::MemoryUsageBytes() const {
  int64_t bytes = nodes_.MemoryUsageBytes();
  nodes_.ForEach([&](NodeId, const NodeData& nd) {
    bytes += static_cast<int64_t>(nd.nbrs.capacity() * sizeof(NodeId));
  });
  return bytes;
}

bool UndirectedGraph::SameStructure(const UndirectedGraph& other) const {
  if (NumNodes() != other.NumNodes() || NumEdges() != other.NumEdges()) {
    return false;
  }
  bool same = true;
  nodes_.ForEach([&](NodeId id, const NodeData& nd) {
    if (!same) return;
    const NodeData* o = other.GetNode(id);
    if (o == nullptr || o->nbrs != nd.nbrs) same = false;
  });
  return same;
}

}  // namespace ringo
