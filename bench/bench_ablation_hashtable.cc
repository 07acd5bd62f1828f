// Ablation — hash table implementation (§2.5): Ringo's open-addressing
// linear-probing FlatHashMap vs std::unordered_map, plus the paper's
// concurrent insert-only map and concurrent vector (storage/), which no
// conversion uses: the conversions sort instead (DESIGN.md §7).
#include <benchmark/benchmark.h>

#include <thread>
#include <unordered_map>

#include "storage/concurrent_map.h"
#include "storage/concurrent_vector.h"
#include "storage/flat_hash_map.h"
#include "util/rng.h"

namespace ringo {
namespace bench {
namespace {

std::vector<int64_t> Keys(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> keys(n);
  for (auto& k : keys) k = rng.UniformInt(0, n * 4);
  return keys;
}

void BM_Hash_Insert_FlatHashMap(benchmark::State& state) {
  const auto keys = Keys(state.range(0), 1);
  for (auto _ : state) {
    FlatHashMap<int64_t, int64_t> m;
    for (int64_t k : keys) m.Insert(k, k);
    benchmark::DoNotOptimize(m.size());
  }
  state.counters["inserts_per_sec"] = benchmark::Counter(
      static_cast<double>(keys.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Hash_Insert_FlatHashMap)->Arg(100000)->Arg(1000000);

void BM_Hash_Insert_StdUnorderedMap(benchmark::State& state) {
  const auto keys = Keys(state.range(0), 1);
  for (auto _ : state) {
    std::unordered_map<int64_t, int64_t> m;
    for (int64_t k : keys) m.emplace(k, k);
    benchmark::DoNotOptimize(m.size());
  }
  state.counters["inserts_per_sec"] = benchmark::Counter(
      static_cast<double>(keys.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Hash_Insert_StdUnorderedMap)->Arg(100000)->Arg(1000000);

void BM_Hash_Probe_FlatHashMap(benchmark::State& state) {
  const auto keys = Keys(state.range(0), 1);
  FlatHashMap<int64_t, int64_t> m;
  for (int64_t k : keys) m.Insert(k, k);
  const auto probes = Keys(state.range(0), 2);
  for (auto _ : state) {
    int64_t hits = 0;
    for (int64_t k : probes) hits += m.Find(k) != nullptr;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(probes.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Hash_Probe_FlatHashMap)->Arg(1000000);

void BM_Hash_Probe_StdUnorderedMap(benchmark::State& state) {
  const auto keys = Keys(state.range(0), 1);
  std::unordered_map<int64_t, int64_t> m;
  for (int64_t k : keys) m.emplace(k, k);
  const auto probes = Keys(state.range(0), 2);
  for (auto _ : state) {
    int64_t hits = 0;
    for (int64_t k : probes) hits += m.count(k);
    benchmark::DoNotOptimize(hits);
  }
  state.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(probes.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Hash_Probe_StdUnorderedMap)->Arg(1000000);

// Concurrent insert-only map: threads race on a shared key space.
void BM_Hash_ConcurrentInsert(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t n = 500000;
  const auto keys = Keys(n, 3);
  for (auto _ : state) {
    ConcurrentInsertMap<int64_t> m(n);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int64_t i = t; i < n; i += threads) {
          m.Insert(keys[i], keys[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(m.size());
  }
  state.counters["inserts_per_sec"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Hash_ConcurrentInsert)->Arg(1)->Arg(2)->Arg(4);

// Concurrent vector: atomic-increment claim (§2.5 verbatim).
void BM_Vector_ConcurrentPushBack(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t n = 1000000;
  for (auto _ : state) {
    ConcurrentVector<int64_t> v(n);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int64_t i = t; i < n; i += threads) v.PushBack(i);
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(v.size());
  }
  state.counters["pushes_per_sec"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Vector_ConcurrentPushBack)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace bench
}  // namespace ringo

BENCHMARK_MAIN();
