// Community detection: asynchronous label propagation plus Newman
// modularity scoring of any partition. Both read AlgoView CSR runs.
// Modularity counts a self-loop as 2 in both its endpoint's degree and the
// community-internal sum (A_uu = 2), matching Louvain's aggregation
// convention.
#ifndef RINGO_ALGO_COMMUNITY_H_
#define RINGO_ALGO_COMMUNITY_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Label propagation (Raghavan et al.): each node repeatedly adopts the
// most frequent label among its neighbors (ties broken by smallest label).
// Deterministic for a given seed (node visiting order is shuffled per
// round). Returns dense community labels, (id, community), ascending by
// id, numbered by first occurrence.
NodeInts LabelPropagation(const UndirectedGraph& g, int max_rounds = 100,
                          uint64_t seed = 1);

// Newman modularity Q of a partition (labels as produced above). Q in
// [-0.5, 1]; higher = stronger community structure. Labels may be any
// int64 values — only which nodes share a label matters — and a node
// missing from `labels` counts as label 0.
double Modularity(const UndirectedGraph& g, const NodeInts& labels);

}  // namespace ringo

#endif  // RINGO_ALGO_COMMUNITY_H_
