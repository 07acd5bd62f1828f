// lj_analytics: an analyst's whole-graph round on the LiveJournalSim edge
// table (scale 1.0), one client, at the full thread count. The time goes
// to core (the two conversions) and the multi-core algo kernels; the
// round never touches table_io, serve or query.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/connectivity.h"
#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "core/conversion.h"
#include "gen/graph_gen.h"
#include "layer_sweep.h"
#include "serve_rw.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 1.0;
constexpr int kBfsSources = 8;

struct RoundAnswer {
  double pagerank_checksum = 0;
  int64_t bfs_reached = 0;
  int64_t components = 0;
  int64_t triangles = 0;
  int64_t max_core = 0;

  bool operator==(const RoundAnswer&) const = default;
};

// One analytics round; `ingest_ms` gets the TableToGraph + view time.
RoundAnswer Round(const ringo::Table& edges,
                  const std::vector<ringo::NodeId>& sources,
                  double* ingest_ms, double* rss_mb) {
  OpSpan op("op.round");
  RoundAnswer ans;
  ringo::DirectedGraph g;
  {
    Span s("core.TableToGraph");
    g = ringo::TableToGraph(edges, "src", "dst").ValueOrDie();
  }
  {
    Span s("algo.AlgoView::Of");
    ringo::AlgoView::Of(g);
  }
  *ingest_ms = op.ElapsedMs();
  {
    Span s("algo.ParallelPageRank");
    const ringo::NodeValues pr =
        ringo::ParallelPageRank(g, PageRankIters(10)).ValueOrDie();
    for (size_t i = 0; i < pr.size(); ++i) {
      ans.pagerank_checksum += pr[i].second * static_cast<double>(i + 1);
    }
  }
  for (const ringo::NodeId src : sources) {
    Span s("algo.BfsDistances");
    ans.bfs_reached += static_cast<int64_t>(ringo::BfsDistances(g, src).size());
  }
  {
    Span s("algo.WeaklyConnectedComponents");
    ans.components = static_cast<int64_t>(
        ringo::ComponentSizes(ringo::WeaklyConnectedComponents(g)).size());
  }
  ringo::UndirectedGraph ug;
  {
    Span s("core.TableToUndirectedGraph");
    ug = ringo::TableToUndirectedGraph(edges, "src", "dst").ValueOrDie();
  }
  {
    Span s("algo.ParallelTriangleCount");
    ans.triangles = ringo::ParallelTriangleCount(ug);
  }
  {
    Span s("algo.CoreNumbers");
    for (const auto& [id, core] : ringo::CoreNumbers(ug)) {
      ans.max_core = std::max(ans.max_core, core);
    }
  }
  // Resident memory with both graphs and the snapshot alive.
  *rss_mb = CurrentRssMb();
  {
    Span s("graph.release");
    ringo::DirectedGraph dead_g = std::move(g);
    ringo::UndirectedGraph dead_ug = std::move(ug);
  }
  return ans;
}

// Distinct source ids from seeded rows of the edge table (each has an
// out-edge by construction).
std::vector<ringo::NodeId> RowSources(const ringo::Table& edges, uint64_t seed) {
  ringo::Rng rng(seed * 0xA24BAED4963EE407ull + 3);
  std::set<ringo::NodeId> picked;
  while (static_cast<int>(picked.size()) < kBfsSources) {
    picked.insert(edges.column(0).GetInt(rng.UniformInt(0, edges.NumRows() - 1)));
  }
  return {picked.begin(), picked.end()};
}

}  // namespace

void RunLjAnalytics(const Options& opts, Report* report) {
  ringo::TablePtr edges;
  std::vector<ringo::NodeId> sources;
  RoundAnswer ref;
  auto check = [&](const RoundAnswer& got) {
    report->Count(1, 0);
    if (!(got == ref)) {
      report->Wrong("lj_analytics round: triangles " +
                    std::to_string(got.triangles) + " vs " +
                    std::to_string(ref.triangles));
    }
  };

  // Set-up: generate the edge table, then one warm-up round; the first
  // warm-up round's answers are the reference.
  std::vector<double> setup_s;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    edges.reset();
    const int64_t t0 = NowNs();
    edges = MakeEdgeTable(ringo::gen::LiveJournalSimEdges(kScale, opts.seed));
    sources = RowSources(*edges, opts.seed);
    double ingest = 0, rss = 0;
    const RoundAnswer warm = Round(*edges, sources, &ingest, &rss);
    if (rep == 0) ref = warm;
    check(warm);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const ViewCounters before = ViewCounters::Now();
  tracer::SetEnabled(opts.trace);
  EndToEnd e;
  e.tail_pct = 70;
  // One window: a run holds only 34 to 40 rounds.
  std::vector<double>& round_ms = e.op_ms.emplace_back();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opts.seconds * 1e9);
  while (NowNs() < end) {
    const int64_t t0 = NowNs();
    double ingest = 0, rss = 0;
    const RoundAnswer got = Round(*edges, sources, &ingest, &rss);
    round_ms.push_back(NsToMs(NowNs() - t0));
    e.ingest_ms.push_back(ingest);
    e.rss_mb.push_back(rss);
    check(got);
  }
  e.ops_per_s = static_cast<double>(round_ms.size()) /
                (static_cast<double>(NowNs() - start) / 1e9);
  tracer::SetEnabled(false);
  report->Note("scale", kScale);
  report->Note("triangles", static_cast<double>(ref.triangles));

  if (!opts.trace) {
    e.setup_s = Median(setup_s);
    AddEndToEnd(e, report);
    return;
  }
  report->Note("traced_p50_ms", Median(round_ms));
  AddViewCounters(before, report);
  AddAttribution(opts.work_dir + "/trace_lj_analytics.json", report);

  // The layer sweep and the serving probe, over the round's own inputs.
  ringo::DirectedGraph g = ringo::TableToGraph(*edges, "src", "dst").ValueOrDie();
  RunEdgeTableSweep(edges, g, sources, PageRankIters(10),
                    opts.work_dir + "/lj_edges.tsv", opts.threads, 3, report);
  RunServeProbe({&g, edges, "dst", kEdgeTableScript, opts.seed}, opts.threads,
                /*qps_per_worker=*/30, report);
}

}  // namespace perfbench
