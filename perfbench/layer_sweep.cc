#include "layer_sweep.h"

#include <functional>
#include <utility>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/triangles.h"
#include "core/conversion.h"
#include "core/engine.h"
#include "table/table_io.h"

namespace perfbench {
namespace {

struct Probe {
  const char* name;              // "<layer>.<call>"; metrics append _ms etc.
  const char* count_metric;      // Result size metric, or nullptr.
  const char* count_unit;
  // One call; returns the result size, or -1 when the call failed.
  std::function<int64_t()> call;
};

// Median wall time of `reps` calls at `threads`, after one untimed call at
// that thread count (the first call after a thread-count change pays for
// thread start-up and allocator growth).
double TimeAt(const Probe& p, int threads, int reps, int64_t* size) {
  ThreadScope scope(threads);
  *size = p.call();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    const int64_t n = p.call();
    ms.push_back(NsToMs(NowNs() - t0));
    if (n != *size) *size = -1;
  }
  return Median(ms);
}

}  // namespace

void RunLayerSweep(const SweepInputs& in, int threads, int reps,
                   Report* report) {
  const ringo::Ringo engine;
  const std::vector<Probe> probes = {
      {"table_io.load", nullptr, nullptr,
       [&] {
         auto t = ringo::LoadTableTSV(in.tsv_schema, in.tsv_path, nullptr,
                                      in.tsv_header);
         return t.ok() ? (*t)->NumRows() : -1;
       }},
      {"table.select", "table.select_rows", "rows",
       [&] {
         auto t = engine.Select(in.select_table, in.select_expr);
         return t.ok() ? (*t)->NumRows() : -1;
       }},
      {"table.join", "table.join_rows", "rows",
       [&] {
         auto t = ringo::Table::Join(*in.join_left, *in.join_right,
                                     in.join_left_col, in.join_right_col);
         return t.ok() ? (*t)->NumRows() : -1;
       }},
      {"table.topk", nullptr, nullptr,
       [&] {
         auto t = in.topk_table->TopK(in.topk_col, in.topk_k);
         return t.ok() ? (*t)->NumRows() : -1;
       }},
      {"core.to_graph", "core.to_graph_edges", "edges",
       [&] {
         auto g = ringo::TableToGraph(*in.edge_table, in.src_col, in.dst_col);
         return g.ok() ? g->NumEdges() : -1;
       }},
      {"core.to_undirected", nullptr, nullptr,
       [&] {
         auto g = ringo::TableToUndirectedGraph(*in.edge_table, in.src_col,
                                                in.dst_col);
         return g.ok() ? g->NumEdges() : -1;
       }},
      {"algo.view_build", nullptr, nullptr,
       [&] { return ringo::AlgoView::Build(*in.graph)->NumNodes(); }},
      {"algo.pagerank", nullptr, nullptr,
       [&] {
         auto pr = ringo::ParallelPageRank(*in.graph, in.pagerank);
         return pr.ok() ? static_cast<int64_t>(pr->size()) : -1;
       }},
      {"algo.bfs", nullptr, nullptr,
       [&] {
         return static_cast<int64_t>(
             ringo::BfsDistances(*in.graph, in.bfs_sources.front()).size());
       }},
      {"algo.wcc", nullptr, nullptr,
       [&] {
         return static_cast<int64_t>(ringo::ComponentSizes(
             ringo::WeaklyConnectedComponents(*in.graph)).size());
       }},
      {"algo.triangles", nullptr, nullptr,
       [&] { return ringo::ParallelTriangleCount(*in.ugraph); }},
      {"algo.kcore", nullptr, nullptr,
       [&] {
         return static_cast<int64_t>(ringo::CoreNumbers(*in.ugraph).size());
       }},
  };

  for (const Probe& p : probes) {
    int64_t size_n = 0, size_1 = 0;
    const double ms_n = TimeAt(p, threads, reps, &size_n);
    const double ms_1 = TimeAt(p, 1, reps, &size_1);
    if (size_n < 0 || size_n != size_1) {
      report->Wrong(std::string(p.name) + ": result differs between 1 and " +
                    std::to_string(threads) + " threads");
    }
    report->Add(std::string(p.name) + "_ms", ms_n, "ms");
    report->Add(std::string(p.name) + "_speedup", ms_n > 0 ? ms_1 / ms_n : 0,
                "x");
    if (p.count_metric != nullptr) {
      report->Add(p.count_metric, static_cast<double>(size_n), p.count_unit);
    }
  }
}

void RunEdgeTableSweep(const ringo::TablePtr& edges,
                       const ringo::DirectedGraph& g,
                       std::vector<ringo::NodeId> bfs_sources,
                       const ringo::PageRankConfig& pagerank,
                       const std::string& tsv, int threads, int reps,
                       Report* report) {
  ringo::SaveTableTSV(*edges, tsv).Abort("save edge table");
  const ringo::UndirectedGraph ug =
      ringo::TableToUndirectedGraph(*edges, "src", "dst").ValueOrDie();
  const ringo::TablePtr deg =
      edges->GroupByAggregate({"src"}, {{"", ringo::AggFn::kCount, "deg"}})
          .ValueOrDie();
  SweepInputs in;
  in.tsv_path = tsv;
  in.tsv_schema = edges->schema();
  in.select_table = edges;
  in.select_expr = "src < 16384";
  in.join_left = edges;
  in.join_right = deg;
  in.join_left_col = "dst";
  in.join_right_col = "src";
  in.topk_table = edges;
  in.topk_col = "dst";
  in.topk_k = 100;
  in.edge_table = edges;
  in.src_col = "src";
  in.dst_col = "dst";
  in.graph = &g;
  in.ugraph = &ug;
  in.bfs_sources = std::move(bfs_sources);
  in.pagerank = pagerank;
  RunLayerSweep(in, threads, reps, report);
}

ringo::PageRankConfig PageRankIters(int iters) {
  ringo::PageRankConfig cfg;
  cfg.max_iters = iters;
  cfg.tol = 0;
  return cfg;
}

}  // namespace perfbench
