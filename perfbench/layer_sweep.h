// The traced run's per-layer thread sweep: each module's public call, fed
// with the workload's own data, timed at 1 thread and at the full thread
// count. Every workload runs the same twelve calls, so every per-layer
// metric exists on every workload; the workload whose end-to-end numbers
// a call dominates is named in README.md.
#ifndef PERFBENCH_LAYER_SWEEP_H_
#define PERFBENCH_LAYER_SWEEP_H_

#include <string>
#include <vector>

#include "algo/pagerank.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "harness.h"
#include "table/schema.h"
#include "table/table.h"

namespace perfbench {

struct SweepInputs {
  // table_io: a TSV file and its schema.
  std::string tsv_path;
  ringo::Schema tsv_schema;
  bool tsv_header = false;
  // table: one Select, one Join, one TopK.
  ringo::TablePtr select_table;
  std::string select_expr;
  ringo::TablePtr join_left, join_right;
  std::string join_left_col, join_right_col;
  ringo::TablePtr topk_table;
  std::string topk_col;
  int64_t topk_k = 10;
  // core: directed and undirected conversion of one edge table.
  ringo::TablePtr edge_table;
  std::string src_col, dst_col;
  // algo: kernels over one directed and one undirected graph.
  const ringo::DirectedGraph* graph = nullptr;
  const ringo::UndirectedGraph* ugraph = nullptr;
  std::vector<ringo::NodeId> bfs_sources;
  ringo::PageRankConfig pagerank;
};

// Emits <layer>.<call>_ms (median at `threads`), <layer>.<call>_speedup
// (1-thread median over `threads` median), and the row/edge counts.
// Reports a failed call as a wrong answer.
void RunLayerSweep(const SweepInputs& in, int threads, int reps,
                   Report* report);

// The sweep over a (src, dst) edge table and its graph `g`: the table is
// saved to `tsv` for the load, selected on src, joined on dst against its
// own out-degree table, and converted; the kernels run on `g` and on the
// undirected conversion.
void RunEdgeTableSweep(const ringo::TablePtr& edges,
                       const ringo::DirectedGraph& g,
                       std::vector<ringo::NodeId> bfs_sources,
                       const ringo::PageRankConfig& pagerank,
                       const std::string& tsv, int threads, int reps,
                       Report* report);

// PageRank with exactly `iters` iterations (tol 0), as the paper times it.
ringo::PageRankConfig PageRankIters(int iters);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_SWEEP_H_
