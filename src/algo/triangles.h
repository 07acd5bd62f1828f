// Undirected triangle counting and clustering coefficients (Table 3's
// second parallel benchmark). The count orients every edge from lower to
// higher (degree, index) into a flat forward CSR and, per node, marks its
// forward neighbors in a per-worker scratch array and scans theirs: each
// triangle is found once, from its lowest-order vertex. The per-node
// participation counts merge-intersect sorted adjacency runs — exactly what
// the sorted-adjacency graph representation (§2.2) is good at. Both run
// over AlgoView CSR runs (self-loops never close a triangle).
#ifndef RINGO_ALGO_TRIANGLES_H_
#define RINGO_ALGO_TRIANGLES_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Total number of distinct triangles {u, v, w}. Self-loops are ignored.
// Runs the counting kernel on the calling thread.
int64_t TriangleCount(const UndirectedGraph& g);

// The same count with the per-node work spread over NumThreads() workers;
// equal to TriangleCount at every thread count.
int64_t ParallelTriangleCount(const UndirectedGraph& g);

// Per-node participation: (id, #triangles through the node), ascending.
NodeInts NodeTriangles(const UndirectedGraph& g);

// Per-node local clustering coefficient: triangles(u) / C(deg(u), 2)
// (0 when deg < 2; self-loops excluded from the degree).
NodeValues LocalClusteringCoefficients(const UndirectedGraph& g);

// Average of the local clustering coefficients over all nodes.
double AverageClusteringCoefficient(const UndirectedGraph& g);

// Global clustering coefficient: 3 * triangles / open+closed wedges.
double GlobalClusteringCoefficient(const UndirectedGraph& g);

}  // namespace ringo

#endif  // RINGO_ALGO_TRIANGLES_H_
