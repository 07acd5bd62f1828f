// HITS (Kleinberg's hubs & authorities), one of the centrality measures the
// §4.1 demo offers for expert finding. Runs on AlgoView CSR runs and is
// bit-identical at any thread count.
#ifndef RINGO_ALGO_HITS_H_
#define RINGO_ALGO_HITS_H_

#include "algo/algo_defs.h"
#include "graph/directed_graph.h"
#include "util/result.h"

namespace ringo {

struct HitsScores {
  NodeValues hubs;         // (id, hub score), ascending by id.
  NodeValues authorities;  // (id, authority score), ascending by id.
};

struct HitsConfig {
  int max_iters = 100;
  double tol = 1e-10;  // L1 convergence threshold; 0 = run max_iters.
};

// Iterative HITS; scores are L2-normalized each iteration.
Result<HitsScores> Hits(const DirectedGraph& g, const HitsConfig& config = {});

}  // namespace ringo

#endif  // RINGO_ALGO_HITS_H_
