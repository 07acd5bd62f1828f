// Ablation — graph representation (§2.2): the paper's hash-table-of-nodes
// with sorted adjacency vectors vs. Compressed Sparse Row.
//
// What the paper claims:
//   * CSR is the gold standard for static traversal, but "deleting a
//     single edge requires time linear in the total number of edges";
//   * the dynamic representation "does not dramatically impact the
//     performance of graph algorithms" (edge delete is O(degree)).
//
// This binary measures both sides of that trade: traversal (full edge
// sweep + BFS) and single-edge deletion on both representations. The CSR
// is AlgoView, the snapshot the analytics read (algo/algo_view.h). It is
// immutable, so deleting an edge from it costs one AlgoView::Build of the
// graph without that edge: O(V + E), linear in |E| like shifting the
// entries of a flat edge array.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "algo/algo_view.h"
#include "bench/bench_common.h"
#include "storage/flat_hash_map.h"
#include "util/rng.h"

namespace ringo {
namespace bench {
namespace {

const AlgoView& Csr() {
  static const std::shared_ptr<const AlgoView> view =
      AlgoView::Build(*LiveJournalSim().graph);
  return *view;
}

// Full edge sweep: sum of destination ids over every edge.
void BM_Repr_EdgeSweep_HashGraph(benchmark::State& state) {
  const DirectedGraph& g = *LiveJournalSim().graph;
  for (auto _ : state) {
    int64_t sum = 0;
    g.ForEachEdge([&](NodeId, NodeId v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(g.NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Repr_EdgeSweep_HashGraph)->Unit(benchmark::kMillisecond);

void BM_Repr_EdgeSweep_Csr(benchmark::State& state) {
  const AlgoView& g = Csr();
  for (auto _ : state) {
    int64_t sum = 0;
    for (int64_t u = 0; u < g.NumNodes(); ++u) {
      for (int64_t v : g.Out(u)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(g.NumOutArcs()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Repr_EdgeSweep_Csr)->Unit(benchmark::kMillisecond);

// BFS from the smallest node id: the same sequential queue BFS on both
// representations. The hash graph looks up each visited node's out-run
// with GetNode and keeps distances in a hash map keyed by node id; the CSR
// reads dense out-runs and a dense distance array.
void BM_Repr_Bfs_HashGraph(benchmark::State& state) {
  const DirectedGraph& g = *LiveJournalSim().graph;
  const NodeId src = g.SortedNodeIds().front();
  FlatHashMap<NodeId, int64_t> dist;
  dist.Reserve(g.NumNodes());
  std::vector<NodeId> queue;
  for (auto _ : state) {
    dist.Clear();
    queue.clear();
    dist.Insert(src, 0);
    queue.push_back(src);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const int64_t du = *dist.Find(u);
      const auto nd = g.GetNode(u);
      for (NodeId v : nd->out) {
        if (dist.Insert(v, du + 1).second) queue.push_back(v);
      }
    }
    benchmark::DoNotOptimize(queue.size());
  }
}
BENCHMARK(BM_Repr_Bfs_HashGraph)->Unit(benchmark::kMillisecond);

void BM_Repr_Bfs_Csr(benchmark::State& state) {
  const AlgoView& g = Csr();
  std::vector<int64_t> dist;
  std::vector<int64_t> queue;
  for (auto _ : state) {
    dist.assign(g.NumNodes(), -1);
    queue.clear();
    dist[0] = 0;
    queue.push_back(0);
    for (size_t head = 0; head < queue.size(); ++head) {
      const int64_t u = queue[head];
      for (int64_t v : g.Out(u)) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    benchmark::DoNotOptimize(queue.size());
  }
}
BENCHMARK(BM_Repr_Bfs_Csr)->Unit(benchmark::kMillisecond);

// Single-edge deletion: O(degree) on the hash graph, O(|E|) on CSR.
void BM_Repr_DelEdge_HashGraph(benchmark::State& state) {
  DirectedGraph g = *LiveJournalSim().graph;  // Mutable copy.
  std::vector<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    // Delete then re-add a random edge so the graph never shrinks away.
    const Edge e = edges[rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1)];
    g.DelEdge(e.first, e.second);
    g.AddEdge(e.first, e.second);
    benchmark::DoNotOptimize(i++);
  }
  state.counters["deletes_per_sec"] = benchmark::Counter(
      2.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Repr_DelEdge_HashGraph);

void BM_Repr_DelEdge_Csr(benchmark::State& state) {
  // Rebuilding the CSR after every delete is the honest cost model; an
  // in-place delete would still shift O(|E|) array entries. Only the
  // rebuild is timed: the hash-graph delete before it and the restore
  // after it are not.
  DirectedGraph g = *LiveJournalSim().graph;  // Mutable copy.
  std::vector<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Edge e = edges[rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1)];
    g.DelEdge(e.first, e.second);
    state.ResumeTiming();
    std::shared_ptr<const AlgoView> view = AlgoView::Build(g);
    benchmark::DoNotOptimize(view.get());
    state.PauseTiming();
    view.reset();
    g.AddEdge(e.first, e.second);  // Restore.
    state.ResumeTiming();
  }
  state.counters["deletes_per_sec"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Repr_DelEdge_Csr)->Iterations(20);

}  // namespace
}  // namespace bench
}  // namespace ringo

BENCHMARK_MAIN();
