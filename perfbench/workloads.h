// The three workloads. Each generates its inputs from the seed, sets up
// `opts.setup_reps` times (reporting the median as setup_s), measures for
// `opts.seconds`, checks every answer, and adds its metrics to the report:
// the end-to-end set untraced, the per-layer set when opts.trace is on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "graph/directed_graph.h"
#include "harness.h"
#include "table/table.h"

namespace perfbench {

void RunSoWorkflow(const Options& opts, Report* report);
void RunLjAnalytics(const Options& opts, Report* report);
void RunServeRw(const Options& opts, Report* report);

// Two-column (src, dst) int table of an edge list.
ringo::TablePtr MakeEdgeTable(const std::vector<ringo::Edge>& edges);

// `n` distinct node ids of `g` with at least `min_out` out-edges, drawn
// with `seed`.
std::vector<ringo::NodeId> SampleSources(const ringo::DirectedGraph& g,
                                         int n, uint64_t seed,
                                         int64_t min_out = 1);

// The end-to-end metric set every workload reports untraced.
struct EndToEnd {
  double setup_s = 0;
  // One sample per unit op, grouped into consecutive time windows; p50_ms
  // and tail_ms are medians over windows (see WindowedPercentile).
  std::vector<std::vector<double>> op_ms;
  double p50_ms = -1;             // Overrides the windowed median when set.
  double tail_pct = 90;           // Fixed per workload.
  std::vector<double> ingest_ms;  // One sample per ingest.
  double ops_per_s = 0;
  std::vector<double> rss_mb;     // Sampled at each unit op's peak.
};
void AddEndToEnd(const EndToEnd& e, Report* report);

// Adds bench.unattributed_frac and the per-module self times of the spans
// recorded so far, and writes them as a Chrome trace to `path`.
void AddAttribution(const std::string& path, Report* report);

// Adds the snapshot-cache counters accumulated since `before`.
struct ViewCounters {
  int64_t hit = 0, build = 0, delta_apply = 0, compact = 0;
  static ViewCounters Now();
};
void AddViewCounters(const ViewCounters& before, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
