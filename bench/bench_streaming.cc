// Streaming update/analytics interleave (DESIGN.md §11) — the artifact
// behind BENCH_streaming.json.
//
// Workload: a steady stream of edge batches against the LiveJournalSim
// stand-in, one analytics-ready snapshot refresh per batch. Each timed
// iteration is one *update-to-query latency*: ApplyEdgeBatch (1% of edges
// inserted + the previous batch's edges deleted) followed by AlgoView::Of
// — the moment Of returns, any ported algorithm can run on a snapshot that
// reflects the batch. The Delta rows refresh through the §11 delta-patch
// path; the Rebuild rows run the same stream with deltacsr disabled, so
// every refresh pays the full O(V+E) rebuild (the pre-§11 behavior). The
// per-pair ratio is the headline claim: batched updates cost O(batch +
// touched nodes), not O(V+E).
//
// Two batch mixes:
//   * Hotspot: batch endpoints drawn from a hot 5% of nodes — the skewed
//     update locality streaming workloads actually show (GraphTango's
//     framing). The patched-node set saturates below the compaction
//     threshold, so steady state never compacts (compactions_in_loop == 0
//     is gated by scripts/check_bench_streaming.py).
//   * Uniform: endpoints uniform over all nodes — touched nodes accumulate
//     until the patched fraction crosses deltacsr::CompactionFraction, so
//     this row shows the compaction policy amortizing (compactions_in_loop
//     > 0) rather than the pure-patch fast path.
//
// The *WithQuery rows add a BFS over the refreshed snapshot to each
// iteration — end-to-end numbers for the README example, not gated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/transform.h"
#include "bench/bench_common.h"
#include "core/conversion.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ringo {
namespace bench {
namespace {

// Disjoint sets of currently-absent edges, cycled by the timed loop:
// iteration i inserts set[i % n] and deletes set[(i-1) % n], so exactly one
// set is live at any time and every insert/delete is effective.
constexpr int kNumSets = 8;

template <typename HasEdgeFn>
std::vector<std::vector<Edge>> MakeBatchSets(const std::vector<NodeId>& pool,
                                             HasEdgeFn&& has_edge,
                                             int64_t batch_edges,
                                             bool undirected, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> sets(kNumSets);
  std::set<Edge> used;
  const int64_t n = static_cast<int64_t>(pool.size());
  for (auto& set : sets) {
    set.reserve(batch_edges);
    while (static_cast<int64_t>(set.size()) < batch_edges) {
      NodeId u = pool[rng.UniformInt(0, n - 1)];
      NodeId v = pool[rng.UniformInt(0, n - 1)];
      if (u == v) continue;
      if (undirected && u > v) std::swap(u, v);
      const Edge e{u, v};
      if (has_edge(e) || !used.insert(e).second) continue;
      set.push_back(e);
    }
    // Producers maintaining sorted batches hit ApplyEdgeBatch's sorted
    // fast path; both the delta and rebuild rows get the same batches.
    std::sort(set.begin(), set.end());
  }
  return sets;
}

// A hot ~1% slice of the sorted node ids (or the full set for uniform
// mixes). The slice is widened when 1% of V cannot host `need_pairs`
// distinct absent edges with headroom — small CI-smoke graphs — so the
// batch-set generator always terminates.
template <typename Graph>
std::vector<NodeId> EndpointPool(const Graph& g, bool hotspot,
                                 int64_t need_pairs) {
  std::vector<NodeId> ids = g.SortedNodeIds();
  if (!hotspot) return ids;
  const int64_t n = static_cast<int64_t>(ids.size());
  const auto min_pool =
      static_cast<int64_t>(std::ceil(std::sqrt(8.0 * need_pairs)));
  const int64_t target = std::min(n, std::max<int64_t>(n / 100, min_pool));
  const size_t stride = static_cast<size_t>(std::max<int64_t>(1, n / target));
  std::vector<NodeId> hot;
  for (size_t i = 0; i < ids.size(); i += stride) hot.push_back(ids[i]);
  return hot;
}

void ReportCommon(benchmark::State& state, int64_t batch_edges) {
  state.counters["batch_edges"] =
      benchmark::Counter(static_cast<double>(batch_edges));
  state.counters["bench_scale"] = benchmark::Counter(BenchScale());
}

// One streaming row. `use_delta` selects the refresh path; `query` adds a
// BFS from `query_src` to the timed region.
template <typename Graph>
void RunStreamingRow(benchmark::State& state, Graph g, bool use_delta,
                     bool hotspot, bool query, NodeId query_src) {
  deltacsr::ScopedEnable toggle(use_delta);
  const int64_t batch_edges =
      std::max<int64_t>(1, g.NumEdges() / 100);  // 1% batch size.
  const bool undirected = !AlgoView::Of(g)->directed();  // Warms the base.
  const auto sets = MakeBatchSets(
      EndpointPool(g, hotspot, int64_t{kNumSets} * batch_edges),
      [&g](const Edge& e) { return g.HasEdge(e.first, e.second); },
      batch_edges, undirected, hotspot ? 0x407 : 0x1F0);

  const int64_t builds0 = metrics::CounterValue("algo_view/build");
  const int64_t applies0 = metrics::CounterValue("algo_view/delta_apply");
  const int64_t compacts0 = metrics::CounterValue("algo_view/compact");
  int64_t i = 0;
  for (auto _ : state) {
    const std::vector<Edge>& ins = sets[i % kNumSets];
    const std::vector<Edge> del =
        i == 0 ? std::vector<Edge>{} : sets[(i - 1) % kNumSets];
    g.ApplyEdgeBatch(ins, del);
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
    benchmark::DoNotOptimize(view);
    if (query) benchmark::DoNotOptimize(BfsDistances(g, query_src));
    ++i;
  }
  ReportCommon(state, batch_edges);
  state.counters["builds_in_loop"] = benchmark::Counter(
      static_cast<double>(metrics::CounterValue("algo_view/build") -
                          builds0));
  state.counters["delta_applies_in_loop"] = benchmark::Counter(
      static_cast<double>(metrics::CounterValue("algo_view/delta_apply") -
                          applies0));
  state.counters["compactions_in_loop"] = benchmark::Counter(
      static_cast<double>(metrics::CounterValue("algo_view/compact") -
                          compacts0));
  state.counters["delta_fraction"] =
      benchmark::Counter(metrics::GaugeValue("algo_view/delta_fraction"));
  state.counters["updates_per_sec"] = benchmark::Counter(
      static_cast<double>(batch_edges) * 2,  // Inserts + deletes at steady.
      benchmark::Counter::kIsIterationInvariantRate);
}

// Fresh mutable copies per run — the shared Dataset graph must stay
// pristine for other rows.
DirectedGraph FreshDirected() {
  const Dataset& d = LiveJournalSim();
  return TableToGraph(*d.edge_table, "src", "dst").ValueOrDie();
}

UndirectedGraph FreshUndirected() {
  const DirectedGraph g = FreshDirected();
  return ToUndirected(g);
}

#define RINGO_STREAMING_ROW(NAME, MAKE, DELTA, HOTSPOT, QUERY)            \
  void BM_Streaming_##NAME(benchmark::State& state) {                     \
    auto g = MAKE();                                                      \
    const NodeId src = g.SortedNodeIds().front();                         \
    RunStreamingRow(state, std::move(g), DELTA, HOTSPOT, QUERY, src);     \
  }                                                                       \
  BENCHMARK(BM_Streaming_##NAME)->Unit(benchmark::kMillisecond)

RINGO_STREAMING_ROW(Delta_Hotspot_LiveJournalSim, FreshDirected,
                    /*delta=*/true, /*hotspot=*/true, /*query=*/false);
RINGO_STREAMING_ROW(Rebuild_Hotspot_LiveJournalSim, FreshDirected,
                    /*delta=*/false, /*hotspot=*/true, /*query=*/false);

RINGO_STREAMING_ROW(Delta_Uniform_LiveJournalSim, FreshDirected,
                    /*delta=*/true, /*hotspot=*/false, /*query=*/false);
RINGO_STREAMING_ROW(Rebuild_Uniform_LiveJournalSim, FreshDirected,
                    /*delta=*/false, /*hotspot=*/false, /*query=*/false);

RINGO_STREAMING_ROW(Delta_Hotspot_UndirectedLiveJournalSim, FreshUndirected,
                    /*delta=*/true, /*hotspot=*/true, /*query=*/false);
RINGO_STREAMING_ROW(Rebuild_Hotspot_UndirectedLiveJournalSim,
                    FreshUndirected,
                    /*delta=*/false, /*hotspot=*/true, /*query=*/false);

RINGO_STREAMING_ROW(DeltaWithQuery_Hotspot_LiveJournalSim, FreshDirected,
                    /*delta=*/true, /*hotspot=*/true, /*query=*/true);
RINGO_STREAMING_ROW(RebuildWithQuery_Hotspot_LiveJournalSim, FreshDirected,
                    /*delta=*/false, /*hotspot=*/true, /*query=*/true);

#undef RINGO_STREAMING_ROW

}  // namespace
}  // namespace bench
}  // namespace ringo

// Explicit main: metrics must be on so the rows can report the refresh
// counters (builds/delta-applies/compactions in loop) that
// scripts/check_bench_streaming.py gates on.
int main(int argc, char** argv) {
  ringo::metrics::SetEnabled(true);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ringo::bench::MaybeExportTrace();
  return 0;
}
