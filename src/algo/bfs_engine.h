// Direction-optimizing parallel BFS over an AlgoView (DESIGN.md §9).
//
// The engine runs level-synchronous BFS in one of two step kinds per level:
//   * top-down: expand the frontier; threads claim unvisited vertices with
//     a CAS on the dense dist array into per-thread buffers, which are
//     concatenated and radix-sorted so the next frontier is ascending;
//   * bottom-up: scan unvisited vertices for any in-frontier predecessor
//     (bitmap test), writing dist/parent without atomics — vertices are
//     partitioned into word-aligned blocks so all writes are block-local.
// Beamer's alpha/beta heuristic switches between them, driven by
// scanned-edge estimates (alpha = 15, beta = 18; bfs_engine.cc).
//
// Determinism: results are bit-identical for every thread count and step
// schedule. dist is the unique hop distance. parent is pinned to
// the *minimum-id* predecessor on a shortest path (dense numbering is
// ascending-id): top-down takes an atomic min over all discoverers,
// bottom-up takes the first frontier hit in an ascending neighbor scan,
// and the sequential path iterates an ascending frontier — all three
// compute the same vertex.
#ifndef RINGO_ALGO_BFS_ENGINE_H_
#define RINGO_ALGO_BFS_ENGINE_H_

#include <cstdint>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"

namespace ringo {
namespace bfs {

struct Options {
  bool need_parents = false;
  // Dense index to search for; the walk stops after the level that reaches
  // it completes (whole levels only, so parents stay canonical). -1 = full.
  int64_t stop_at = -1;
};

struct DenseBfs {
  std::vector<int64_t> dist;    // n entries; -1 = unreachable.
  std::vector<int64_t> parent;  // Min-id predecessor; -1 = none/source.
                                // Empty unless Options::need_parents.
  int64_t reached = 0;          // Vertices with dist >= 0.
  int64_t max_depth = 0;        // Deepest level reached.
  int64_t top_down_steps = 0;
  int64_t bottom_up_steps = 0;
};

// BFS from dense index `src` (out of range => all-unreachable result).
// `dir` is interpreted against the view: kOut follows out-arcs, kIn
// in-arcs, kBoth both; undirected views ignore it.
DenseBfs Run(const AlgoView& view, int64_t src, BfsDir dir,
             const Options& opts = {});

// Minimal sequential BFS filling `dist` (resized to n, -1 = unreachable).
// No parallel primitives inside, so it is safe to call from within a
// parallel region (per-pivot BFS in EstimateDiameter). Returns the number
// of reached vertices.
int64_t SequentialDistances(const AlgoView& view, int64_t src, BfsDir dir,
                            std::vector<int64_t>* dist);

}  // namespace bfs
}  // namespace ringo

#endif  // RINGO_ALGO_BFS_ENGINE_H_
