#include "graph/adjacency_core.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"
#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Journal cap: replaying a delta comparable to the graph itself is slower
// than one rebuild, so the journal gives up well before that.
int64_t JournalCap(int64_t num_edges) {
  return std::max<int64_t>(4096, num_edges / 2);
}

// Unordered edge pairs: (u, v) and (v, u) name the same undirected edge, so
// undirected batches are normalized to u <= v before sorting/deduping (and
// journaled that way).
void Normalize(std::vector<Edge>& edges) {
  for (Edge& e : edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
}

// Capacity of a run that must hold `need` words and has `cap`.
int64_t GrownCapacity(int64_t cap, int64_t need) {
  return std::max(need, kRunGrowth * cap);
}

}  // namespace

template <typename P>
AdjacencyCore<P>::AdjacencyCore(SortedRuns<kDirs> runs) {
  const int64_t n = static_cast<int64_t>(runs.nodes.size());
  // Ascending inserts into a pre-sized table: the slot layout, and so the
  // hash iteration order, is the one every earlier build produced.
  nodes_.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    Slot s;
    for (int d = 0; d < kDirs; ++d) {
      const int64_t lo = runs.begin[d][i];
      const int64_t size = runs.begin[d][i + 1] - lo;
      s[d] = {lo, size, size};
    }
    nodes_.Insert(runs.nodes[i], s);
  }
  for (int d = 0; d < kDirs; ++d) arena_[d] = std::move(runs.arcs[d]);
  if (n > 0) next_node_id_ = WatermarkAfter(0, runs.nodes.back());
  const int64_t arcs = static_cast<int64_t>(arena_[0].size());
  if constexpr (kDirs == 2) {
    num_edges_ = arcs;
  } else {
    // Every edge is stored at both endpoints except a self-loop.
    const int64_t loops = DeterministicBlockSum(0, n, [&](int64_t i) {
      const NodeId u = runs.nodes[i];
      const NodeId* b = arena_[0].data() + runs.begin[0][i];
      const NodeId* e = arena_[0].data() + runs.begin[0][i + 1];
      return std::binary_search(b, e, u) ? int64_t{1} : int64_t{0};
    });
    num_edges_ = (arcs + loops) / 2;
  }
}

template <typename P>
void AdjacencyCore<P>::CopyFrom(const AdjacencyCore& other) {
  nodes_ = other.nodes_;
  for (int d = 0; d < kDirs; ++d) Repack(d, other.arena_[d]);
  relocations_ = 0;
  compactions_ = 0;
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = other.journal_;
}

template <typename P>
void AdjacencyCore<P>::MoveFrom(AdjacencyCore& other) {
  nodes_ = std::move(other.nodes_);
  for (int d = 0; d < kDirs; ++d) {
    arena_[d] = std::move(other.arena_[d]);
    other.arena_[d].clear();  // A moved-from vector is only "valid".
    dead_[d] = std::exchange(other.dead_[d], 0);
  }
  relocations_ = std::exchange(other.relocations_, 0);
  compactions_ = std::exchange(other.compactions_, 0);
  num_edges_ = std::exchange(other.num_edges_, 0);
  next_node_id_ = std::exchange(other.next_node_id_, 0);
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = std::move(other.journal_);
  other.journal_.Invalidate();
  other.cache_.Reset();
}

template <typename P>
AdjacencyCore<P>::AdjacencyCore(const AdjacencyCore& other) {
  std::shared_lock<std::shared_mutex> lk(other.structure_mu_);
  CopyFrom(other);
}

template <typename P>
AdjacencyCore<P>& AdjacencyCore<P>::operator=(const AdjacencyCore& other) {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  CopyFrom(other);
  cache_.Reset();
  return *this;
}

template <typename P>
AdjacencyCore<P>::AdjacencyCore(AdjacencyCore&& other) noexcept {
  std::unique_lock<std::shared_mutex> lk(other.structure_mu_);
  MoveFrom(other);
}

template <typename P>
AdjacencyCore<P>& AdjacencyCore<P>::operator=(AdjacencyCore&& other) noexcept {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  MoveFrom(other);
  cache_.Reset();
  return *this;
}

template <typename P>
bool AdjacencyCore<P>::EnsureNode(NodeId id) {
  const bool inserted = nodes_.Insert(id, Slot{}).second;
  if (inserted) next_node_id_ = WatermarkAfter(next_node_id_, id);
  return inserted;
}

template <typename P>
bool AdjacencyCore<P>::AddNodeLocked(NodeId id) {
  const bool inserted = EnsureNode(id);
  if (inserted) BumpStamp();
  return inserted;
}

template <typename P>
bool AdjacencyCore<P>::AddNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  return AddNodeLocked(id);
}

template <typename P>
NodeId AdjacencyCore<P>::AddNode() {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // The watermark is advanced by every insert path (EnsureNode and the
  // sorted-runs build), so this probe is O(1) amortized; it only walks
  // once INT64_MAX is held.
  const NodeId id = UnusedNodeId(nodes_, &next_node_id_);
  AddNodeLocked(id);
  return id;
}

template <typename P>
void AdjacencyCore<P>::GrowRun(int d, AdjRun& r, int64_t need) {
  PooledVector<NodeId>& a = arena_[d];
  const int64_t cap = GrownCapacity(r.cap, need);
  const int64_t tail = static_cast<int64_t>(a.size());
  if (r.off + r.cap == tail) {
    a.resize(r.off + cap);  // The run ends the arena: extend it in place.
  } else {
    a.resize(tail + cap);
    std::copy(a.data() + r.off, a.data() + r.off + r.size, a.data() + tail);
    dead_[d] += r.cap;
    r.off = tail;
    ++relocations_;
  }
  r.cap = cap;
}

template <typename P>
bool AdjacencyCore<P>::RunInsert(int d, AdjRun& r, NodeId v) {
  const NodeId* b = arena_[d].data() + r.off;
  const int64_t pos = std::lower_bound(b, b + r.size, v) - b;
  if (pos < r.size && b[pos] == v) return false;
  if (r.size == r.cap) GrowRun(d, r, r.size + 1);
  NodeId* run = arena_[d].data() + r.off;
  std::copy_backward(run + pos, run + r.size, run + r.size + 1);
  run[pos] = v;
  ++r.size;
  return true;
}

template <typename P>
bool AdjacencyCore<P>::RunErase(int d, AdjRun& r, NodeId v) {
  NodeId* run = arena_[d].data() + r.off;
  NodeId* it = std::lower_bound(run, run + r.size, v);
  if (it == run + r.size || *it != v) return false;
  std::copy(it + 1, run + r.size, it);
  --r.size;
  return true;
}

template <typename P>
void AdjacencyCore<P>::Repack(int d, const PooledVector<NodeId>& from) {
  // Two passes over contiguous slot ranges: each part's words, then each
  // part copies its runs to its prefix-summed place.
  const int64_t slots = nodes_.capacity();
  const int parts = RangeParts(slots);
  const std::vector<int64_t> bounds = PartitionRange(slots, parts);
  std::vector<int64_t> start(parts + 1, 0);
  ParallelFor(0, parts, [&](int64_t p) {
    int64_t words = 0;
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      if (nodes_.SlotOccupied(i)) words += nodes_.SlotValue(i)[d].cap;
    }
    start[p] = words;
  });
  const int64_t total = ExclusivePrefixSum(start.data(), start.data(),
                                           parts + 1);
  PooledVector<NodeId> to(total);
  ParallelFor(0, parts, [&](int64_t p) {
    int64_t pos = start[p];
    for (int64_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      if (!nodes_.SlotOccupied(i)) continue;
      AdjRun& r = nodes_.SlotValue(i)[d];
      std::copy(from.data() + r.off, from.data() + r.off + r.size,
                to.data() + pos);
      r.off = pos;
      pos += r.cap;
    }
  });
  arena_[d] = std::move(to);
  dead_[d] = 0;
}

template <typename P>
void AdjacencyCore<P>::MaybeCompact() {
  for (int d = 0; d < kDirs; ++d) {
    // The rewrite walks every table slot and copies every live word; dead
    // words beyond both pay for it (DESIGN.md §18's amortized bound).
    if (dead_[d] < nodes_.capacity() ||
        static_cast<double>(dead_[d]) <=
            kDeadFraction * static_cast<double>(arena_[d].size())) {
      continue;
    }
    trace::Span span("Graph/compact_arena");
    span.AddAttr("dead_words", dead_[d]);
    PooledVector<NodeId> old = std::move(arena_[d]);
    Repack(d, old);
    ++compactions_;
    RINGO_COUNTER_ADD("graph/arena_compactions", 1);
  }
}

template <typename P>
bool AdjacencyCore<P>::AddEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // No stamp bumps here: if the edge already exists its endpoints do too,
  // so a failed insert below means nothing changed at all, and a
  // successful one bumps exactly once for nodes + edge together. Both
  // EnsureNode calls precede both Finds: an insert may rehash the table.
  EnsureNode(src);
  EnsureNode(dst);
  if (!RunInsert(0, (*nodes_.Find(src))[0], dst)) return false;
  if (kDirs == 2 || src != dst) {
    RunInsert(kMirror, (*nodes_.Find(dst))[kMirror], src);
  }
  ++num_edges_;
  BumpStamp();
  MaybeCompact();
  return true;
}

template <typename P>
bool AdjacencyCore<P>::DelEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  Slot* s = nodes_.Find(src);
  if (s == nullptr || !RunErase(0, (*s)[0], dst)) return false;
  if (kDirs == 2 || src != dst) {
    RunErase(kMirror, (*nodes_.Find(dst))[kMirror], src);
  }
  --num_edges_;
  BumpStamp();
  return true;
}

template <typename P>
bool AdjacencyCore<P>::DelNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  const Slot* found = nodes_.Find(id);
  if (found == nullptr) return false;
  const Slot s = *found;
  // Detach from every neighbour's mirror run (erasing never moves a run,
  // so this node's runs stay readable). A directed self-loop sits in both
  // of the node's runs but is one edge.
  int64_t removed = 0;
  for (int d = 0; d < kDirs; ++d) {
    const int m = kMirror - d;
    for (const NodeId v : Run(d, s)) {
      if (v != id) RunErase(m, (*nodes_.Find(v))[m], id);
    }
    removed += s[d].size;
    dead_[d] += s[d].cap;
  }
  if (kDirs == 2) {
    const std::span<const NodeId> out = Run(0, s);
    if (std::binary_search(out.begin(), out.end(), id)) --removed;
  }
  num_edges_ -= removed;
  nodes_.Erase(id);
  BumpStamp();
  MaybeCompact();
  return true;
}

template <typename P>
void AdjacencyCore<P>::MergeOps(int d, const std::vector<EdgeOp>& ops) {
  const std::vector<int64_t> groups = edgebatch::GroupByNode(ops);
  const int64_t ngroups = static_cast<int64_t>(groups.size()) - 1;
  // Per touched run: its new size, and for a run that outgrows its
  // capacity the capacity of its new place at the arena tail (one pass,
  // linear in the ops; the merges below are the parallel part).
  std::vector<AdjRun*> runs(ngroups);
  std::vector<int64_t> sizes(ngroups);
  std::vector<int64_t> moved(ngroups + 1, 0);
  for (int64_t k = 0; k < ngroups; ++k) {
    AdjRun* r = &(*nodes_.Find(ops[groups[k]].u))[d];
    int64_t size = r->size;
    for (int64_t o = groups[k]; o < groups[k + 1]; ++o) size += ops[o].op;
    runs[k] = r;
    sizes[k] = size;
    if (size > r->cap) {
      moved[k] = GrownCapacity(r->cap, size);
      dead_[d] += r->cap;
      ++relocations_;
    }
  }
  // One arena growth for every relocated run; the merges below never
  // reallocate, and groups are disjoint runs, so they run in parallel.
  const int64_t tail = static_cast<int64_t>(arena_[d].size());
  arena_[d].resize(tail +
                   ExclusivePrefixSum(moved.data(), moved.data(), ngroups + 1));
  NodeId* a = arena_[d].data();
  ParallelForDynamic(0, ngroups, [&](int64_t k) {
    AdjRun& r = *runs[k];
    const EdgeOp* b = ops.data() + groups[k];
    const EdgeOp* e = ops.data() + groups[k + 1];
    const std::span<const NodeId> old(a + r.off, static_cast<size_t>(r.size));
    if (moved[k + 1] != moved[k]) {
      edgebatch::MergeRunInto(old, b, e, a + tail + moved[k]);
      r.off = tail + moved[k];
      r.cap = moved[k + 1] - moved[k];
    } else {
      // In place through per-thread scratch: in steady state the merge
      // loop runs allocation-free.
      static thread_local std::vector<NodeId> scratch;
      scratch.resize(static_cast<size_t>(sizes[k]));
      edgebatch::MergeRunInto(old, b, e, scratch.data());
      std::copy(scratch.begin(), scratch.end(), a + r.off);
    }
    r.size = sizes[k];
  });
}

template <typename P>
EdgeBatchStats AdjacencyCore<P>::ApplyEdgeBatch(std::vector<Edge> inserts,
                                                std::vector<Edge> deletes) {
  trace::Span span("Graph/ApplyEdgeBatch");
  span.AddAttr("inserts_raw", static_cast<int64_t>(inserts.size()));
  span.AddAttr("deletes_raw", static_cast<int64_t>(deletes.size()));
  EdgeBatchStats stats;
  {
    trace::Span s("Graph/ApplyEdgeBatch/sort_dedup");
    if constexpr (kDirs == 1) {
      Normalize(inserts);
      Normalize(deletes);
    }
    edgebatch::SortDedup(inserts);
    edgebatch::SortDedup(deletes);
  }

  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // A created id at or above this watermark lies above every id held
  // before the batch, so creating it never renumbers existing snapshot
  // rows — the batch stays journal-replayable (DESIGN.md §11). Saturation
  // keeps this sound: the only id at or above a saturated watermark is
  // INT64_MAX, and a batch creates it only when it was not held.
  const NodeId pre_watermark = next_node_id_;
  std::vector<NodeId> created;

  std::vector<EdgeOp> ops;
  {
    trace::Span s("Graph/ApplyEdgeBatch/resolve");
    // Endpoints of every insert pair exist afterwards, like repeated AddEdge
    // (even for pairs that cancel against a delete in the same batch — the
    // delete removes the edge, not the nodes). One EnsureNode per distinct
    // endpoint: firsts repeat consecutively in the sorted list, seconds are
    // deduped through one radix pass.
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

    // Resolve against the pre-batch adjacency into net ops ("inserts first,
    // then deletes"): a pair in deletes nets to a delete iff the edge
    // pre-existed; a pair only in inserts nets to an insert iff it did not.
    // One merged walk over the two sorted lists emits the ops already in
    // (u, v) order, and runs of pairs sharing a first endpoint reuse one
    // lookup (no node is inserted past EnsureNode, so the slot is stable).
    ops.reserve(inserts.size() + deletes.size());
    NodeId cached_u = -1;
    const Slot* cached = nullptr;
    const auto has = [&](const Edge& e) {
      if (e.first != cached_u) {
        cached_u = e.first;
        cached = nodes_.Find(e.first);
      }
      if (cached == nullptr) return false;
      const std::span<const NodeId> run = Run(0, *cached);
      return std::binary_search(run.begin(), run.end(), e.second);
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

  if (!stats.Changed()) return stats;  // True no-op: the stamp stays put.

  if (!ops.empty()) {
    trace::Span apply_span("Graph/ApplyEdgeBatch/apply");
    if constexpr (kDirs == 2) {
      // Out-runs take the (src, dst)-sorted ops as they are; in-runs take
      // the transpose, which the counting sort orders by dst.
      MergeOps(0, ops);
      std::vector<EdgeOp> in_ops(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        in_ops[i] = {ops[i].v, ops[i].u, ops[i].op};
      }
      edgebatch::SortTransposedOps(in_ops);
      MergeOps(1, in_ops);
    } else {
      // Each undirected op lands in both endpoints' runs (a self-loop in
      // one), so expand to owner-keyed ops before grouping.
      std::vector<EdgeOp> adj_ops;
      adj_ops.reserve(2 * ops.size());
      for (const EdgeOp& o : ops) {
        adj_ops.push_back(o);
        if (o.u != o.v) adj_ops.push_back({o.v, o.u, o.op});
      }
      edgebatch::SortOps(adj_ops);
      MergeOps(0, adj_ops);
    }
    num_edges_ += stats.inserted - stats.deleted;
  }

  // One stamp bump for the whole batch. Created nodes journal alongside the
  // edge ops as long as every new id lands above the pre-batch watermark
  // (the snapshot's dense numbering only ever appends then); a batch that
  // resurrects a lower id — possible after DelNode — is not replayable and
  // invalidates instead.
  stamp_.fetch_add(1, std::memory_order_release);
  RadixSortI64(created);
  if (created.empty() || created.front() >= pre_watermark) {
    journal_.AppendBatch(stamp_.load(std::memory_order_relaxed),
                         std::move(ops), JournalCap(num_edges_),
                         std::move(created));
  } else {
    journal_.Invalidate();
  }
  MaybeCompact();

  RINGO_COUNTER_ADD("graph/edge_batches", 1);
  RINGO_COUNTER_ADD("graph/batch_inserts", stats.inserted);
  RINGO_COUNTER_ADD("graph/batch_deletes", stats.deleted);
  span.AddAttr("inserted", stats.inserted);
  span.AddAttr("deleted", stats.deleted);
  span.AddAttr("new_nodes", stats.new_nodes);
  return stats;
}

template <typename P>
bool AdjacencyCore<P>::HasEdge(NodeId src, NodeId dst) const {
  const Slot* s = nodes_.Find(src);
  if (s == nullptr) return false;
  const std::span<const NodeId> run = Run(0, *s);
  return std::binary_search(run.begin(), run.end(), dst);
}

template <typename P>
std::vector<NodeId> AdjacencyCore<P>::SortedNodeIds() const {
  std::vector<NodeId> ids = nodes_.Keys();
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename P>
int64_t AdjacencyCore<P>::MemoryUsageBytes() const {
  int64_t bytes = nodes_.MemoryUsageBytes();
  for (int d = 0; d < kDirs; ++d) {
    bytes += static_cast<int64_t>(arena_[d].capacity() * sizeof(NodeId));
  }
  return bytes;
}

template <typename P>
bool AdjacencyCore<P>::SameStructure(const AdjacencyCore& other) const {
  if (NumNodes() != other.NumNodes() || NumEdges() != other.NumEdges()) {
    return false;
  }
  bool same = true;
  nodes_.ForEach([&](NodeId id, const Slot& s) {
    if (!same) return;
    const Slot* o = other.nodes_.Find(id);
    if (o == nullptr) {
      same = false;
      return;
    }
    for (int d = 0; d < kDirs; ++d) {
      const std::span<const NodeId> a = Run(d, s);
      const std::span<const NodeId> b = other.Run(d, *o);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) same = false;
    }
  });
  return same;
}

template <typename P>
ArenaStats AdjacencyCore<P>::arena_stats() const {
  ArenaStats st;
  for (int d = 0; d < kDirs; ++d) {
    st.words += static_cast<int64_t>(arena_[d].size());
    st.dead_words += dead_[d];
  }
  st.relocations = relocations_;
  st.compactions = compactions_;
  return st;
}

template class AdjacencyCore<DirectedPolicy>;
template class AdjacencyCore<UndirectedPolicy>;

}  // namespace ringo
