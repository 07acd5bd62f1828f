// Shared graph-engine type definitions.
#ifndef RINGO_GRAPH_GRAPH_DEFS_H_
#define RINGO_GRAPH_GRAPH_DEFS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace ringo {

// Node identifiers are arbitrary 64-bit integers chosen by the user (they
// typically come straight out of a table column, §2.4); they need not be
// dense or contiguous.
using NodeId = int64_t;

// A directed edge (source, destination).
using Edge = std::pair<NodeId, NodeId>;

// The id watermark after a graph admits `id`. The watermark starts at 0
// and stays one past the largest id ever held, so ids at or above it are
// fresh. It saturates at INT64_MAX, which has no successor: a saturated
// watermark may itself be held, which UnusedNodeId handles.
inline NodeId WatermarkAfter(NodeId watermark, NodeId id) {
  return std::max(watermark, id == INT64_MAX ? id : id + 1);
}

// An id absent from `nodes` (a node table), advancing the watermark `*next`
// past held ids first. Once the watermark is saturated and INT64_MAX is
// held there is nothing above it, so the lowest absent non-negative id is
// returned instead; one exists because a table holds fewer than INT64_MAX
// ids.
template <typename NodeTable>
NodeId UnusedNodeId(const NodeTable& nodes, NodeId* next) {
  while (*next < INT64_MAX && nodes.Contains(*next)) ++*next;
  if (!nodes.Contains(*next)) return *next;
  NodeId id = 0;
  while (nodes.Contains(id)) ++id;
  return id;
}

struct PairHash {
  size_t operator()(const Edge& e) const {
    // Combine with the 64-bit golden-ratio multiplier; the flat map applies
    // a finalizing mixer on top.
    return static_cast<size_t>(
        static_cast<uint64_t>(e.first) * 0x9E3779B97F4A7C15ULL +
        static_cast<uint64_t>(e.second));
  }
};

}  // namespace ringo

#endif  // RINGO_GRAPH_GRAPH_DEFS_H_
