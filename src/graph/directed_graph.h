// DirectedGraph: the Ringo in-memory graph representation (§2.2). A hash
// table of nodes, each with sorted in- and out-neighbour runs, balances
// the paper's two opposing requirements: membership tests are O(log deg)
// and intersections linear merges, while deleting an edge costs O(deg),
// not O(|E|) as in a CSR, which AlgoView (algo/algo_view.h) rebuilds.
// The runs live in two per-graph arenas, one per direction
// (graph/adjacency_core.h, DESIGN.md §18), which also describes span
// lifetime and concurrency.
//
// Semantics: simple directed graph. Self-loops are allowed; parallel
// (duplicate) edges are not.
#ifndef RINGO_GRAPH_DIRECTED_GRAPH_H_
#define RINGO_GRAPH_DIRECTED_GRAPH_H_

#include <cstdint>

#include "graph/adjacency_core.h"

namespace ringo {

class DirectedGraph : public AdjacencyCore<DirectedPolicy> {
 public:
  using AdjacencyCore::AdjacencyCore;

  // Degree queries; 0 for missing nodes.
  int64_t OutDegree(NodeId id) const { return RunSize(0, id); }
  int64_t InDegree(NodeId id) const { return RunSize(1, id); }
};

}  // namespace ringo

#endif  // RINGO_GRAPH_DIRECTED_GRAPH_H_
