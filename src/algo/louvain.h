// Louvain modularity optimization (Blondel et al. 2008): the standard
// multi-level community detection algorithm — local moves until modularity
// stops improving, then aggregation into a community super-graph, repeated.
// Stronger (and costlier) than label propagation; both are offered, as a
// system with "over 200 graph functions" would. The level-0 working graph
// is built from AlgoView CSR runs; communities and modularity are a
// function of the graph and the seed.
#ifndef RINGO_ALGO_LOUVAIN_H_
#define RINGO_ALGO_LOUVAIN_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"
#include "util/result.h"

namespace ringo {

struct LouvainResult {
  // Final community per node, dense ids numbered by first occurrence in
  // ascending node-id order.
  NodeInts communities;
  double modularity = 0;  // Newman modularity of the final partition.
  int levels = 0;         // Aggregation levels performed.
};

struct LouvainConfig {
  int max_levels = 20;
  int max_passes_per_level = 50;
  double min_gain = 1e-7;  // Stop a level when a full pass gains less.
  uint64_t seed = 1;       // Node visiting order shuffle.
};

Result<LouvainResult> Louvain(const UndirectedGraph& g,
                              const LouvainConfig& config = {});

}  // namespace ringo

#endif  // RINGO_ALGO_LOUVAIN_H_
