#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {

ringo::TablePtr MakeEdgeTable(const std::vector<ringo::Edge>& edges) {
  ringo::TablePtr t = ringo::Table::Create(ringo::Schema{
      {"src", ringo::ColumnType::kInt}, {"dst", ringo::ColumnType::kInt}});
  ringo::Column& src = t->mutable_column(0);
  ringo::Column& dst = t->mutable_column(1);
  const int64_t n = static_cast<int64_t>(edges.size());
  src.Resize(n);
  dst.Resize(n);
  for (int64_t i = 0; i < n; ++i) {
    src.SetInt(i, edges[i].first);
    dst.SetInt(i, edges[i].second);
  }
  t->SealAppendedRows(n).Abort("MakeEdgeTable");
  return t;
}

std::vector<ringo::NodeId> SampleSources(const ringo::DirectedGraph& g, int n,
                                         uint64_t seed, int64_t min_out) {
  std::vector<ringo::NodeId> ids;
  for (const ringo::NodeId id : g.SortedNodeIds()) {
    if (g.OutDegree(id) >= min_out) ids.push_back(id);
  }
  ringo::Rng rng(seed * 0xD1B54A32D192ED03ull + 17);
  std::vector<ringo::NodeId> out;
  while (static_cast<int>(out.size()) < n &&
         out.size() < ids.size()) {
    const ringo::NodeId id = ids[rng.UniformInt(0, int64_t(ids.size()) - 1)];
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

void AddEndToEnd(const EndToEnd& e, Report* report) {
  report->Add("setup_s", e.setup_s, "s");
  report->Add("p50_ms",
              e.p50_ms >= 0 ? e.p50_ms : WindowedPercentile(e.op_ms, 50), "ms");
  report->Add("tail_ms", WindowedPercentile(e.op_ms, e.tail_pct), "ms");
  report->Add("ingest_ms", Median(e.ingest_ms), "ms");
  report->Add("ops_per_s", e.ops_per_s, "1/s");
  report->Add("rss_mb", Median(e.rss_mb), "MB");
  size_t samples = 0;
  for (const std::vector<double>& w : e.op_ms) samples += w.size();
  report->Note("samples", static_cast<double>(samples));
  report->Note("windows", static_cast<double>(e.op_ms.size()));
  report->Note("tail_pct", e.tail_pct);
  report->Note("ingest_samples", static_cast<double>(e.ingest_ms.size()));
}

void AddAttribution(const std::string& path, Report* report) {
  const std::vector<SpanRec> spans = tracer::Spans();
  const tracer::Attribution a = tracer::Analyze(spans);
  report->Add("bench.unattributed_frac", a.max_unattributed, "fraction");
  report->Note("unit_ops", static_cast<double>(a.ops));
  report->Note("unit_ops_derived", static_cast<double>(a.derived_ops));
  report->Note("unit_ops_under_95pct", static_cast<double>(a.flagged));
  for (const auto& [module, ms] : a.self_ms) {
    report->Note("self_ms." + module, ms);
    std::fprintf(stderr, "perfbench: self time %-14s %12.3f ms\n",
                 module.c_str(), ms);
  }
  if (!tracer::WriteChromeTrace(path, spans)) {
    report->Wrong("cannot write trace " + path);
  }
  report->Note("trace_file", path);
}

ViewCounters ViewCounters::Now() {
  return {ringo::metrics::CounterValue("algo_view/hit"),
          ringo::metrics::CounterValue("algo_view/build"),
          ringo::metrics::CounterValue("algo_view/delta_apply"),
          ringo::metrics::CounterValue("algo_view/compact")};
}

void AddViewCounters(const ViewCounters& before, Report* report) {
  const ViewCounters now = ViewCounters::Now();
  const double hit = double(now.hit - before.hit);
  const double build = double(now.build - before.build);
  const double delta = double(now.delta_apply - before.delta_apply);
  const double compact = double(now.compact - before.compact);
  // Every AlgoView::Of call counts exactly one of the four outcomes.
  const double calls = hit + build + delta + compact;
  report->Add("algo.view_hit_ratio", calls > 0 ? hit / calls : 0, "fraction");
  report->Add("algo.view_builds", build, "count");
  report->Add("algo.view_delta_applies", delta, "count");
  report->Add("algo.view_compactions", compact, "count");
}

}  // namespace perfbench
