#include "algo/algo_view.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "graph/edge_batch.h"
#include "graph/snapshot_cache.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace deltacsr {

namespace {
std::atomic<bool> g_enabled{true};
std::atomic<double> g_compaction_fraction{0.15};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

double CompactionFraction() {
  return g_compaction_fraction.load(std::memory_order_relaxed);
}
void SetCompactionFraction(double fraction) {
  g_compaction_fraction.store(fraction, std::memory_order_relaxed);
}

}  // namespace deltacsr

namespace {

// Every node's runs in dense-index order: one node-table lookup per node
// for all directions.
template <typename Graph>
PooledVector<typename Graph::NodeView> NodeViews(const Graph& g,
                                                 const NodeIndex& ni) {
  PooledVector<typename Graph::NodeView> views(ni.size());
  ParallelFor(0, ni.size(),
              [&](int64_t i) { views[i] = *g.GetNode(ni.IdOf(i)); });
  return views;
}

// Counts degrees, prefix-sums them into offsets, and fills the neighbor
// array with dense indices. `run` picks a direction's run out of a node
// view; translation through the monotone id->index map keeps each span
// ascending, so no per-node re-sort is needed. A graph built in bulk holds
// its runs back to back in ascending id order, so this reads its arena
// front to back.
template <typename Views, typename RunFn>
void FillCsr(const Views& views, const NodeIndex& ni, const RunFn& run,
             PooledVector<int64_t>* offsets, PooledVector<int64_t>* nbrs) {
  const int64_t n = ni.size();
  offsets->resize(n + 1);
  ParallelFor(0, n, [&](int64_t i) {
    (*offsets)[i] = static_cast<int64_t>(run(views[i]).size());
  });
  // offsets holds degrees in [0, n); with 0 at n the exclusive scan turns
  // it into the n+1 CSR offsets with the total at offsets[n].
  (*offsets)[n] = 0;
  const int64_t total = ExclusivePrefixSum(offsets->data(), offsets->data(),
                                           n + 1);
  nbrs->resize(total);
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t pos = (*offsets)[i];
    for (const NodeId v : run(views[i])) (*nbrs)[pos++] = ni.IndexOf(v);
  });
}

// Collapses a multi-batch op stream into at most one net op per pair.
// Journal batches are each net against the live graph, so per pair the
// stream alternates sign and the sum is in {-1, 0, +1}.
std::vector<EdgeOp> NetOps(std::vector<EdgeOp> ops) {
  edgebatch::SortOps(ops);
  // Single-batch replays — the streaming steady state — are already net:
  // each journaled batch is resolved against the live graph, so no pair
  // repeats and there is nothing to collapse.
  bool has_dup = false;
  for (size_t i = 1; i < ops.size() && !has_dup; ++i) {
    has_dup = ops[i].u == ops[i - 1].u && ops[i].v == ops[i - 1].v;
  }
  if (!has_dup) return ops;
  std::vector<EdgeOp> net;
  net.reserve(ops.size());
  size_t i = 0;
  while (i < ops.size()) {
    size_t j = i;
    int32_t sum = 0;
    while (j < ops.size() && ops[j].u == ops[i].u && ops[j].v == ops[i].v) {
      sum += ops[j].op;
      ++j;
    }
    if (sum != 0) net.push_back({ops[i].u, ops[i].v, sum});
    i = j;
  }
  return net;
}

template <typename Vec>
int64_t VecBytes(const Vec& v) {
  return static_cast<int64_t>(v.capacity() *
                              sizeof(typename Vec::value_type));
}

}  // namespace

int64_t AlgoView::BaseCsr::MemoryUsageBytes() const {
  return ni.MemoryUsageBytes() + VecBytes(out_offsets) + VecBytes(out_nbrs) +
         VecBytes(in_offsets) + VecBytes(in_nbrs) +
         out_c.MemoryUsageBytes() + in_c.MemoryUsageBytes();
}

int64_t AlgoView::MemoryUsageBytes() const {
  int64_t bytes = base_->MemoryUsageBytes();
  for (const DirPatch* p : {&out_patch_, &in_patch_}) {
    bytes += VecBytes(p->slot) + VecBytes(p->nodes) + VecBytes(p->offsets) +
             VecBytes(p->arena);
  }
  if (ext_ni_ != nullptr) bytes += ext_ni_->MemoryUsageBytes();
  return bytes;
}

NbrSpan AlgoView::DecodeBase(const compactcsr::CompressedDir& d,
                             const PooledVector<int64_t>& offsets,
                             int64_t i) {
  const int64_t deg = offsets[i + 1] - offsets[i];
  if (deg == 0) return {};
  compactcsr::BufRef buf =
      compactcsr::AcquireBuf(static_cast<size_t>(deg));
  compactcsr::DecodeRun(d.bytes.data() + d.byte_offsets[i], deg, buf.data());
  const int64_t* p = buf.data();
  return {p, static_cast<size_t>(deg), std::move(buf)};
}

template <typename Graph>
std::shared_ptr<AlgoView> AlgoView::BuildFull(const Graph& g) {
  trace::Span span("AlgoView/build");
  auto view = std::shared_ptr<AlgoView>(new AlgoView());
  auto base = std::make_shared<BaseCsr>();
  base->ni = NodeIndex::FromGraph(g);
  constexpr bool kDirected = std::is_same_v<Graph, DirectedGraph>;
  view->directed_ = kDirected;
  const auto views = NodeViews(g, base->ni);
  if constexpr (kDirected) {
    FillCsr(views, base->ni, [](const auto& nd) { return nd.out; },
            &base->out_offsets, &base->out_nbrs);
    FillCsr(views, base->ni, [](const auto& nd) { return nd.in; },
            &base->in_offsets, &base->in_nbrs);
    view->num_in_arcs_ = static_cast<int64_t>(base->in_nbrs.size());
  } else {
    FillCsr(views, base->ni, [](const auto& nd) { return nd.nbrs; },
            &base->out_offsets, &base->out_nbrs);
  }
  view->num_out_arcs_ = static_cast<int64_t>(base->out_nbrs.size());
  view->base_nodes_ = base->ni.size();
  if (compactcsr::Enabled()) {
    // Freeze the compact layout into this base: varint delta streams
    // replace the flat payloads, element offsets stay for O(1) degrees.
    base->out_c = compactcsr::Compress(base->out_offsets, base->out_nbrs);
    PooledVector<int64_t>().swap(base->out_nbrs);
    if (kDirected) {
      base->in_c = compactcsr::Compress(base->in_offsets, base->in_nbrs);
      PooledVector<int64_t>().swap(base->in_nbrs);
    }
    RINGO_COUNTER_ADD("algo_view/compress", 1);
  }
  view->base_ = std::move(base);
  view->PublishMemGauges();
  span.AddAttr("nodes", view->NumNodes());
  span.AddAttr("arcs", view->NumOutArcs());
  return view;
}

void AlgoView::PublishMemGauges() const {
  const int64_t bytes = MemoryUsageBytes();
  const int64_t arcs = NumOutArcs() + (directed_ ? NumInArcs() : 0);
  metrics::GaugeSet("mem/graph_bytes", static_cast<double>(bytes));
  metrics::GaugeSet("mem/bytes_per_edge",
                    arcs == 0 ? 0.0
                              : static_cast<double>(bytes) /
                                    static_cast<double>(arcs));
}

void AlgoView::PatchDirection(const AlgoView& prev, bool in_dir,
                              const std::vector<EdgeOp>& ops,
                              AlgoView* next) {
  // Size the overlay for the *next* view — it may hold delta-created nodes
  // past prev's count; their prev spans read as empty (Out/In guard them).
  const int64_t n = next->NumNodes();
  const DirPatch& old = in_dir ? prev.in_patch_ : prev.out_patch_;
  DirPatch& np = in_dir ? next->in_patch_ : next->out_patch_;

  const std::vector<int64_t> groups = edgebatch::GroupByNode(ops);
  const int64_t ngroups =
      ops.empty() ? 0 : static_cast<int64_t>(groups.size()) - 1;

  // Union of previously patched nodes and nodes touched by this delta,
  // ascending; second = op-group index for touched nodes, -1 = plain copy.
  std::vector<std::pair<int64_t, int64_t>> uni;
  uni.reserve(old.nodes.size() + static_cast<size_t>(ngroups));
  {
    size_t a = 0;
    int64_t k = 0;
    while (a < old.nodes.size() || k < ngroups) {
      const int64_t tn =
          k < ngroups ? static_cast<int64_t>(ops[groups[k]].u) : INT64_MAX;
      const int64_t on = a < old.nodes.size() ? old.nodes[a] : INT64_MAX;
      if (tn < on) {
        uni.emplace_back(tn, k++);
      } else if (on < tn) {
        uni.emplace_back(on, -1);
        ++a;
      } else {
        uni.emplace_back(tn, k++);
        ++a;
      }
    }
  }

  const int64_t p = static_cast<int64_t>(uni.size());
  np.offsets.assign(p + 1, 0);
  ParallelFor(0, p, [&](int64_t idx) {
    const auto [node, grp] = uni[idx];
    int64_t sz = in_dir ? prev.InDegree(node) : prev.OutDegree(node);
    if (grp >= 0) {
      for (int64_t o = groups[grp]; o < groups[grp + 1]; ++o) {
        sz += ops[o].op;
      }
    }
    np.offsets[idx] = sz;
  });
  const int64_t total = ExclusivePrefixSum(np.offsets.data(),
                                           np.offsets.data(), p + 1);
  np.arena.resize(total);
  np.nodes.resize(p);
  np.slot.assign(n, -1);
  ParallelForDynamic(0, p, [&](int64_t idx) {
    const auto [node, grp] = uni[idx];
    np.nodes[idx] = node;
    np.slot[node] = static_cast<int32_t>(idx);
    // NbrSpan, not std::span: on a compressed base the run lives in pooled
    // scratch kept alive by this handle.
    const NbrSpan src = in_dir ? prev.In(node) : prev.Out(node);
    int64_t* dst = np.arena.data() + np.offsets[idx];
    if (grp < 0) {
      std::copy(src.begin(), src.end(), dst);
    } else {
      edgebatch::MergeRunInto(src, ops.data() + groups[grp],
                              ops.data() + groups[grp + 1], dst);
    }
  });
}

std::shared_ptr<const AlgoView> AlgoView::ApplyDelta(
    const std::shared_ptr<const AlgoView>& prev, std::vector<EdgeOp> raw_ops,
    double compact_fraction, std::vector<NodeId> new_node_ids) {
  const std::vector<EdgeOp> net = NetOps(std::move(raw_ops));
  if (net.empty() && new_node_ids.empty()) {
    return prev;  // Batches canceled out; structure matches.
  }
  trace::Span span("AlgoView/delta_apply");

  // Created nodes extend the dense index: the journal's watermark rule
  // guarantees every new id sorts after every id prev knows, so the new
  // rows append after the existing ones and no old index shifts. A batch
  // that violates that (journal contract broken) falls back to a rebuild.
  std::shared_ptr<const NodeIndex> ext = prev->ext_ni_;
  if (!new_node_ids.empty()) {
    const std::vector<NodeId>& old_ids = prev->node_index().ids();
    if (!old_ids.empty() && new_node_ids.front() <= old_ids.back()) {
      return nullptr;
    }
    std::vector<NodeId> all_ids;
    all_ids.reserve(old_ids.size() + new_node_ids.size());
    all_ids.insert(all_ids.end(), old_ids.begin(), old_ids.end());
    all_ids.insert(all_ids.end(), new_node_ids.begin(), new_node_ids.end());
    ext = std::make_shared<NodeIndex>(NodeIndex::FromIds(std::move(all_ids)));
  }
  const NodeIndex& ni = ext != nullptr ? *ext : prev->base_->ni;

  // Translate to dense indices and expand per direction. Every endpoint
  // resolves in the (possibly extended) index; a miss means the journal
  // contract was broken and the caller must rebuild.
  std::vector<EdgeOp> fwd;
  std::vector<EdgeOp> rev;
  fwd.reserve(2 * net.size());
  if (prev->directed_) rev.reserve(net.size());
  int64_t fwd_delta = 0;
  int64_t rev_delta = 0;
  for (const EdgeOp& o : net) {
    const int64_t ui = ni.IndexOf(o.u);
    const int64_t vi = ni.IndexOf(o.v);
    if (ui < 0 || vi < 0) return nullptr;
    fwd.push_back({ui, vi, o.op});
    fwd_delta += o.op;
    if (prev->directed_) {
      rev.push_back({vi, ui, o.op});
      rev_delta += o.op;
    } else if (ui != vi) {
      // Undirected: the edge lands in both endpoints' spans (self-loops
      // once), mirroring the graph's adjacency runs.
      fwd.push_back({vi, ui, o.op});
      fwd_delta += o.op;
    }
  }
  // The id->index map is monotone, so the directed fwd list is already
  // sorted (SortOps' pre-check skips it); rev is its transpose, so the
  // counting sort applies. Undirected fwd interleaves mirrored ops and
  // takes the real sort.
  edgebatch::SortOps(fwd);
  if (prev->directed_) edgebatch::SortTransposedOps(rev);

  auto next = std::shared_ptr<AlgoView>(new AlgoView());
  next->directed_ = prev->directed_;
  next->base_ = prev->base_;
  next->ext_ni_ = ext;
  next->base_nodes_ = prev->base_nodes_;
  next->num_out_arcs_ = prev->num_out_arcs_ + fwd_delta;
  next->num_in_arcs_ = prev->directed_ ? prev->num_in_arcs_ + rev_delta : 0;
  if (net.empty()) {
    // Node-only batch: adjacency is untouched, so the overlays carry over
    // verbatim (their slot arrays stay sized to prev — reads guard that).
    next->out_patch_ = prev->out_patch_;
    next->in_patch_ = prev->in_patch_;
  } else {
    PatchDirection(*prev, /*in_dir=*/false, fwd, next.get());
    if (prev->directed_) {
      PatchDirection(*prev, /*in_dir=*/true, rev, next.get());
    }
  }

  span.AddAttr("net_ops", static_cast<int64_t>(net.size()));
  span.AddAttr("new_nodes", static_cast<int64_t>(new_node_ids.size()));
  span.AddAttr("patched_nodes", next->PatchedNodes());
  if (next->DeltaFraction() > compact_fraction) return nullptr;  // Compact.
  return next;
}

template <typename Graph>
std::shared_ptr<const AlgoView> AlgoView::CachedOf(const Graph& g) {
  // Single-flight protocol (DESIGN.md §12): Acquire either returns a fresh
  // snapshot (possibly after waiting out another thread's build) or elects
  // this thread the sole builder for the current stamp.
  SnapshotCache& cache = g.view_cache();
  SnapshotCache::Claim claim =
      cache.Acquire([&g] { return g.MutationStamp(); });
  if (!claim.builder) {
    RINGO_COUNTER_ADD("algo_view/hit", 1);
    return std::static_pointer_cast<const AlgoView>(std::move(claim.view));
  }

  // Builder: abort the flight if anything below throws, so waiters are not
  // stranded. The shared structure lock freezes the stamp, journal, and
  // adjacency for the duration of the refresh.
  SnapshotCache::BuildScope scope(&cache);
  auto structure_lock = g.ReadLockStructure();
  const uint64_t built_stamp = g.MutationStamp();
  const auto prev = std::static_pointer_cast<const AlgoView>(claim.view);

  std::shared_ptr<const AlgoView> view;
  if (deltacsr::Enabled() && prev != nullptr &&
      g.delta_journal().Covers(claim.stamp, built_stamp)) {
    view = ApplyDelta(prev, g.delta_journal().OpsSince(claim.stamp),
                      deltacsr::CompactionFraction(),
                      g.delta_journal().NodesSince(claim.stamp));
    if (view != nullptr) {
      // The stale snapshot was patched forward, not discarded — counted
      // separately from invalidations so dashboards see rebuild pressure
      // only when it is real.
      RINGO_COUNTER_ADD("algo_view/stale_patch", 1);
      RINGO_COUNTER_ADD("algo_view/delta_apply", 1);
    } else {
      view = BuildFull(g);
      RINGO_COUNTER_ADD("algo_view/invalidate", 1);
      RINGO_COUNTER_ADD("algo_view/compact", 1);
    }
  } else {
    view = BuildFull(g);
    if (prev != nullptr) RINGO_COUNTER_ADD("algo_view/invalidate", 1);
    RINGO_COUNTER_ADD("algo_view/build", 1);
  }
  g.TrimDeltaJournal(built_stamp);
  structure_lock.unlock();

  view->set_snapshot_stamp(built_stamp);
  metrics::GaugeSet("algo_view/delta_nodes",
                    static_cast<double>(view->PatchedNodes()));
  metrics::GaugeSet("algo_view/delta_fraction", view->DeltaFraction());
  view->PublishMemGauges();
  scope.Publish(view, built_stamp);
  return view;
}

std::shared_ptr<const AlgoView> AlgoView::Of(const DirectedGraph& g) {
  return CachedOf(g);
}

std::shared_ptr<const AlgoView> AlgoView::Of(const UndirectedGraph& g) {
  return CachedOf(g);
}

std::shared_ptr<const AlgoView> AlgoView::Build(const DirectedGraph& g) {
  RINGO_COUNTER_ADD("algo_view/build", 1);
  auto view = BuildFull(g);
  view->set_snapshot_stamp(g.MutationStamp());
  return view;
}

std::shared_ptr<const AlgoView> AlgoView::Build(const UndirectedGraph& g) {
  RINGO_COUNTER_ADD("algo_view/build", 1);
  auto view = BuildFull(g);
  view->set_snapshot_stamp(g.MutationStamp());
  return view;
}

}  // namespace ringo
