// Shared machinery for batched edge mutations (DESIGN.md §11).
//
// ApplyEdgeBatch on both graph classes follows the same plan:
//   1. radix-sort and dedup the insert and delete lists (§7 machinery);
//   2. resolve each mentioned pair against the current adjacency into a
//      *net* op stream ("inserts first, then deletes" semantics — a pair in
//      both lists cancels unless the edge pre-existed, in which case it
//      nets to a delete);
//   3. group the net ops by run-owning endpoint and rewrite each touched
//      node's sorted run with ONE linear merge instead of k repeated
//      O(deg) sorted inserts — groups are disjoint, so the merges run in
//      parallel.
// The helpers here are the pieces the adjacency core (graph/
// adjacency_core.*) and the snapshot patch path (algo/algo_view.*) share.
#ifndef RINGO_GRAPH_EDGE_BATCH_H_
#define RINGO_GRAPH_EDGE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/delta_journal.h"
#include "graph/graph_defs.h"
#include "util/radix_sort.h"

namespace ringo {

// What a batch actually changed. `inserted`/`deleted` count net effective
// edge mutations (an edge inserted and deleted inside one batch counts as
// neither); `new_nodes` counts endpoints created for insert pairs, which
// happens even when the edge itself already existed (matching AddEdge).
struct EdgeBatchStats {
  int64_t inserted = 0;
  int64_t deleted = 0;
  int64_t new_nodes = 0;

  bool Changed() const { return inserted + deleted + new_nodes > 0; }
};

namespace edgebatch {

// Sorts by (first, second) with the radix kernel and drops duplicates.
// Already-sorted input (producers that maintain sorted batches, and the
// steady state of replayed streams) skips the sort for one linear check.
inline void SortDedup(std::vector<Edge>& edges) {
  if (!std::is_sorted(edges.begin(), edges.end())) {
    RadixSortI64Pairs(edges.data(), static_cast<int64_t>(edges.size()));
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

// Net mutations are EdgeOp records (graph/delta_journal.h). When applying
// to adjacency, `u` is the endpoint whose sorted run the op lands in and
// `v` the neighbor inserted/erased.

// Sorts ops by (u, v); ops are net (at most one per pair) except inside
// NetOps' multi-batch collapse, where same-pair ops are summed — so no
// tiebreak is needed either way. Several op streams are sorted by
// construction (resolved batches, single-batch journal replays, monotone
// dense translations), so a linear pre-check skips the sort for them.
// Otherwise packs into the two-word radix records from §7; with pass
// skipping the distribution sort beats a comparison sort even for
// thousand-op batches (node ids are narrow).
inline void SortOps(std::vector<EdgeOp>& ops) {
  const auto by_uv = [](const EdgeOp& a, const EdgeOp& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  if (std::is_sorted(ops.begin(), ops.end(), by_uv)) return;
  const int64_t n = static_cast<int64_t>(ops.size());
  std::vector<KeyRow2> recs(ops.size());
  for (int64_t i = 0; i < n; ++i) {
    recs[i] = {radix::Int64Key(ops[i].u), radix::Int64Key(ops[i].v),
               ops[i].op};
  }
  RadixSortKeyRows2(recs.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    ops[i] = {static_cast<NodeId>(recs[i].hi ^ (uint64_t{1} << 63)),
              static_cast<NodeId>(recs[i].lo ^ (uint64_t{1} << 63)),
              static_cast<int32_t>(recs[i].row)};
  }
}

// Sorts an op list that is the transpose of a (u, v)-sorted stream (every
// record's endpoints swapped, e.g. the in-direction view of out-sorted
// ops): within equal u the v's are already ascending, so one stable
// counting pass by u suffices. Dense owner ids — the common case for
// renumbered snapshots and generated graphs — take the O(range + n)
// counting path; sparse ranges fall back to the radix sort.
inline void SortTransposedOps(std::vector<EdgeOp>& ops) {
  const int64_t n = static_cast<int64_t>(ops.size());
  if (n <= 1) return;
  NodeId lo = ops[0].u, hi = ops[0].u;
  bool sorted = true;
  for (int64_t i = 0; i < n; ++i) {
    lo = std::min(lo, ops[i].u);
    hi = std::max(hi, ops[i].u);
    if (i > 0 && (ops[i - 1].u > ops[i].u ||
                  (ops[i - 1].u == ops[i].u && ops[i - 1].v > ops[i].v))) {
      sorted = false;
    }
  }
  if (sorted) return;
  // The id span is unsigned: between extreme ids it exceeds INT64_MAX.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const int64_t max_range = std::max<int64_t>(int64_t{1} << 16, 8 * n);
  if (span >= static_cast<uint64_t>(max_range)) {
    SortOps(ops);
    return;
  }
  const int64_t range = static_cast<int64_t>(span) + 1;
  std::vector<int32_t> starts(range + 1, 0);
  for (int64_t i = 0; i < n; ++i) ++starts[ops[i].u - lo + 1];
  for (int64_t r = 0; r < range; ++r) starts[r + 1] += starts[r];
  static thread_local std::vector<EdgeOp> scratch;
  scratch.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    scratch[starts[ops[i].u - lo]++] = ops[i];
  }
  std::copy(scratch.begin(), scratch.end(), ops.begin());
}

// Writes the merge of the ascending run `src` with one owner's net ops
// [begin, end) (sorted ascending by v) to `dst`, which must not overlap
// `src`. Inserts are absent from `src` and deletes present — the caller
// resolved the ops against the run — so the output holds exactly
// src.size() + (inserts - deletes) words and the merge is one forward pass;
// a delete consumes its matching entry. Graph runs and snapshot patch runs
// (dense indices) both merge through here.
inline void MergeRunInto(std::span<const NodeId> src, const EdgeOp* begin,
                         const EdgeOp* end, NodeId* dst) {
  size_t i = 0;
  const EdgeOp* o = begin;
  while (i < src.size() || o != end) {
    if (o == end) {
      *dst++ = src[i++];
    } else if (i == src.size()) {
      // Remaining ops must all be inserts past the tail.
      *dst++ = o->v;
      ++o;
    } else if (src[i] < o->v) {
      *dst++ = src[i++];
    } else if (src[i] == o->v) {
      // A delete consumes the element; an equal insert cannot happen.
      ++i;
      ++o;
    } else {
      *dst++ = o->v;
      ++o;
    }
  }
}

// Group boundaries of a (u, v)-sorted op list: offsets[k] is the first op
// of group k, groups keyed by `u`. Returns group-count + 1 entries.
inline std::vector<int64_t> GroupByNode(const std::vector<EdgeOp>& ops) {
  std::vector<int64_t> offsets;
  const int64_t n = static_cast<int64_t>(ops.size());
  for (int64_t i = 0; i < n; ++i) {
    if (i == 0 || ops[i].u != ops[i - 1].u) offsets.push_back(i);
  }
  offsets.push_back(n);
  return offsets;
}

}  // namespace edgebatch
}  // namespace ringo

#endif  // RINGO_GRAPH_EDGE_BATCH_H_
