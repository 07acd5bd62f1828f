// Table 5 — "Execution times for converting tables to graphs and vice
// versa."
//
// Paper (full size):
//   Table → graph: LiveJournal 8.5s (13.0M edges/s), Twitter2010 81.0s
//                  (18.0M edges/s)
//   Graph → table: LiveJournal 1.5s (46.0M edges/s), Twitter2010 29.2s
//                  (50.4M edges/s)
//
// Shape to check at reduced scale: graph→table runs ~3–4x faster than the
// sort-first table→graph build, and both rates hold roughly flat between
// the two dataset sizes ("the conversion scales well").
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace ringo {
namespace bench {
namespace {

void RunTableToGraph(benchmark::State& state, const Dataset& d,
                     double paper_seconds, double paper_rate_medges) {
  for (auto _ : state) {
    auto g = TableToGraph(*d.edge_table, "src", "dst");
    benchmark::DoNotOptimize(std::move(g).ValueOrDie().NumEdges());
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.rows()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["paper_medges_per_sec"] = paper_rate_medges * 1e6;
  SetPaperSeconds(state, paper_seconds);
}

void BM_Table5_TableToGraph_LiveJournalSim(benchmark::State& state) {
  RunTableToGraph(state, LiveJournalSim(), 8.5, 13.0);
}
BENCHMARK(BM_Table5_TableToGraph_LiveJournalSim)
    ->Unit(benchmark::kMillisecond);

void BM_Table5_TableToGraph_TwitterSim(benchmark::State& state) {
  RunTableToGraph(state, TwitterSim(), 81.0, 18.0);
}
BENCHMARK(BM_Table5_TableToGraph_TwitterSim)->Unit(benchmark::kMillisecond);

// The undirected build, the round's second conversion (both orientations
// of every row in one sorted array). The paper's Table 5 reports only the
// directed one, so this row carries no paper figures.
void RunTableToUndirectedGraph(benchmark::State& state, const Dataset& d) {
  for (auto _ : state) {
    auto g = TableToUndirectedGraph(*d.edge_table, "src", "dst");
    benchmark::DoNotOptimize(std::move(g).ValueOrDie().NumEdges());
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.rows()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Table5_TableToUndirectedGraph_LiveJournalSim(benchmark::State& state) {
  RunTableToUndirectedGraph(state, LiveJournalSim());
}
BENCHMARK(BM_Table5_TableToUndirectedGraph_LiveJournalSim)
    ->Unit(benchmark::kMillisecond);

void BM_Table5_TableToUndirectedGraph_TwitterSim(benchmark::State& state) {
  RunTableToUndirectedGraph(state, TwitterSim());
}
BENCHMARK(BM_Table5_TableToUndirectedGraph_TwitterSim)
    ->Unit(benchmark::kMillisecond);

void RunGraphToTable(benchmark::State& state, const Dataset& d,
                     double paper_seconds, double paper_rate_medges) {
  for (auto _ : state) {
    TablePtr t = GraphToEdgeTable(*d.graph, d.edge_table->pool());
    benchmark::DoNotOptimize(t->NumRows());
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.graph->NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["paper_medges_per_sec"] = paper_rate_medges * 1e6;
  SetPaperSeconds(state, paper_seconds);
}

void BM_Table5_GraphToTable_LiveJournalSim(benchmark::State& state) {
  RunGraphToTable(state, LiveJournalSim(), 1.5, 46.0);
}
BENCHMARK(BM_Table5_GraphToTable_LiveJournalSim)
    ->Unit(benchmark::kMillisecond);

void BM_Table5_GraphToTable_TwitterSim(benchmark::State& state) {
  RunGraphToTable(state, TwitterSim(), 29.2, 50.4);
}
BENCHMARK(BM_Table5_GraphToTable_TwitterSim)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ringo

// Explicit main (instead of BENCHMARK_MAIN) so the trace recorded across
// the run can be exported for scripts/check_trace.py.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ringo::bench::MaybeExportTrace();
  return 0;
}
