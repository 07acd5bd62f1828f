// PageRank (Table 3's parallel benchmark and the §4.1 demo's ranking step).
//
// Both implementations are pull-based power iteration: each node gathers
// rank mass from its in-neighbors, so the parallel variant needs no atomics
// — exactly the "straightforward sequential algorithm with a few OpenMP
// statements" the paper describes. Dangling-node mass is redistributed
// uniformly each iteration, so ranks always sum to 1.
//
// The kernel reads in-neighbor runs from the cached AlgoView CSR snapshot.
// Results are bit-identical across thread counts.
#ifndef RINGO_ALGO_PAGERANK_H_
#define RINGO_ALGO_PAGERANK_H_

#include <memory>
#include <vector>

#include "algo/algo_defs.h"
#include "graph/directed_graph.h"
#include "graph/edge_weights.h"
#include "util/result.h"

namespace ringo {

class AlgoView;

struct PageRankConfig {
  double damping = 0.85;
  int max_iters = 100;
  // Stop when the L1 change between iterations drops below tol. Set tol=0
  // to always run max_iters (the paper times exactly 10 iterations).
  double tol = 1e-10;
};

// Sequential PageRank; (id, score) ascending by id, scores sum to 1.
Result<NodeValues> PageRank(const DirectedGraph& g,
                            const PageRankConfig& config = {});

// OpenMP-parallel PageRank; identical results to PageRank (deterministic
// apart from floating-point reduction order).
Result<NodeValues> ParallelPageRank(const DirectedGraph& g,
                                    const PageRankConfig& config = {});

// Carry-over state for warm-started PageRank on a stream of delta batches
// (DESIGN.md §11). Holds the snapshot the scores were computed against plus
// the dense score vector in that snapshot's numbering.
struct PageRankWarmState {
  std::shared_ptr<const AlgoView> view;
  std::vector<double> scores;  // Dense, in view's numbering; sums to 1.
  int iterations = 0;          // Iterations the last call actually ran.
  bool warm = false;           // Last call was seeded from previous scores.
};

// Parallel PageRank that seeds power iteration from `state->scores` when
// the node set is unchanged since the previous call (delta batches only
// touch edges, so this is the common streaming case). Power iteration with
// damping < 1 has a unique fixed point, so warm and cold starts converge to
// the same scores within `config.tol` — the warm start just gets there in
// fewer iterations after a small batch. Falls back to a cold start
// (uniform init) on the first call or after the node set changed. Always
// runs on the AlgoView CSR snapshot. Updates *state in place.
Result<NodeValues> ParallelPageRankWarm(const DirectedGraph& g,
                                        PageRankWarmState* state,
                                        const PageRankConfig& config = {});

// PageRank over an already-pinned snapshot, returning the dense score
// vector in the view's numbering (uniform teleport; zip with
// view.node_index() for ids). This is the serving-engine entry point: a
// query pins one view and never touches the live graph, so it is safe
// under concurrent writers (DESIGN.md §12) and honors the calling thread's
// cancellation token. Runs on the calling thread: the engine already runs
// queries side by side on its workers.
Result<std::vector<double>> PageRankScoresOnView(
    const AlgoView& view, const PageRankConfig& config = {});

// Personalized PageRank: teleport jumps back to `seeds` (uniformly) instead
// of to all nodes. Fails if seeds is empty or contains unknown nodes.
Result<NodeValues> PersonalizedPageRank(const DirectedGraph& g,
                                        const std::vector<NodeId>& seeds,
                                        const PageRankConfig& config = {});

// Weighted PageRank: rank mass flows along each edge u→v in proportion to
// w(u, v) / Σ_x w(u, x) instead of 1/outdeg(u). Missing edges in `w`
// default to weight 1; weights must be non-negative and a node's outgoing
// total must be positive or the node is treated as dangling.
Result<NodeValues> WeightedPageRank(const DirectedGraph& g,
                                    const EdgeWeights& w,
                                    const PageRankConfig& config = {});

}  // namespace ringo

#endif  // RINGO_ALGO_PAGERANK_H_
