// Serving with writes beside reads: an open-loop query generator on a fixed
// schedule, a writer streaming edge batches at a fixed rate, and the
// serve::Engine between them. The serve_rw workload runs this on
// LiveJournalSim; the traced runs of the other workloads run it briefly on
// their own graph and table so every serving-layer metric exists there too.
#ifndef PERFBENCH_SERVE_RW_H_
#define PERFBENCH_SERVE_RW_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/directed_graph.h"
#include "harness.h"
#include "serve/query.h"
#include "table/table.h"

namespace perfbench {

struct ServeInputs {
  ringo::DirectedGraph* graph = nullptr;  // Mutated by the writer.
  ringo::TablePtr table;                  // The session table, `t`.
  std::string topk_col;
  std::string script;                     // kScript source over `t`.
  uint64_t seed = 1;
};

struct ServeConfig {
  int workers = 2;
  double rate_qps = 100;      // Open-loop schedule.
  double open_seconds = 5;
  int clients = 4;            // Closed-loop capacity phase.
  double closed_seconds = 1;
  double writer_hz = 50;
};

struct ServeReport {
  // Open loop, from each query's due time, one vector per window of due
  // times.
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> queue_ms;     // Submission to worker pickup.
  std::map<ringo::serve::QueryKind, std::vector<double>> run_ms;
  std::vector<double> update_ms, apply_ms, refresh_ms;
  std::vector<double> send_late_ms;  // Generator lateness per send.
  std::vector<double> rss_mb;        // Sampled by the writer while serving.
  int64_t queue_depth_max = 0;
  int64_t attempted = 0, shed = 0, deadline_miss = 0, errors = 0, wrong = 0;
  int64_t updates = 0;
  int64_t batch_edges = 0;
  double capacity_qps = 0;
};

// Owns the query set and the reference answers: the writer alternates the
// graph between exactly two states (without and with one batch of absent
// edges), and construction answers every (query, state) pair serially.
class ServeBench {
 public:
  explicit ServeBench(const ServeInputs& in);

  // Runs the open-loop phase, then the closed-loop capacity phase, with
  // the writer active throughout. Open-loop latencies are grouped into
  // windows of about 2 s by due time, and capacity is the median over
  // windows of about 1 s. The open loop turns a stall of the machine into
  // queueing; per-window figures confine it to the windows it covers. Checks every answer against the
  // reference for the state its snapshot stamp belongs to. Records spans
  // per query and per update when the tracer is on.
  ServeReport Run(const ServeConfig& cfg);

  int64_t batch_edges() const { return static_cast<int64_t>(batch_.size()); }

 private:
  struct Answer {
    int64_t rows = 0;
    double checksum = 0;
  };

  ServeInputs in_;
  std::vector<ringo::Edge> batch_;
  std::vector<ringo::serve::Query> queries_;
  std::vector<double> weights_;
  std::vector<Answer> ref_[2];  // Per state, per query.
};

// Adds the serving-layer per-layer metrics (queue, run time per kind,
// updates, generator lateness) to `report`.
void AddServeLayerMetrics(const ServeReport& r, Report* report);

// Folds the report's outcomes into the attempted/failed counts.
void CountServeOutcomes(const ServeReport& r, Report* report);

// The script the edge-table workloads serve: select -> group_by -> top_k.
extern const char* const kEdgeTableScript;

// A 2 s serve-with-writer run over a workload's own graph and table, for
// the traced runs of workloads that do not serve; adds its outcomes and
// serving-layer metrics to `report`.
void RunServeProbe(const ServeInputs& in, int threads, double qps_per_worker,
                   Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_RW_H_
