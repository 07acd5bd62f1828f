// UndirectedGraph: hash-table-of-nodes representation with one sorted
// neighbour run per node, kept in one per-graph arena (graph/
// adjacency_core.h, DESIGN.md §18, which also describes span lifetime and
// concurrency). Each edge {u, v} appears in both endpoints' runs (a
// self-loop appears once). Used for triangle counting, clustering
// coefficients, k-core and community algorithms.
#ifndef RINGO_GRAPH_UNDIRECTED_GRAPH_H_
#define RINGO_GRAPH_UNDIRECTED_GRAPH_H_

#include <cstdint>

#include "graph/adjacency_core.h"

namespace ringo {

class UndirectedGraph : public AdjacencyCore<UndirectedPolicy> {
 public:
  using AdjacencyCore::AdjacencyCore;

  // Number of neighbours (a self-loop counts once); 0 for missing nodes.
  int64_t Degree(NodeId id) const { return RunSize(0, id); }
};

}  // namespace ringo

#endif  // RINGO_GRAPH_UNDIRECTED_GRAPH_H_
