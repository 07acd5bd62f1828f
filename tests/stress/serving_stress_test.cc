// Concurrency gates for the serving core (DESIGN.md §12), run under the
// TSan `stress` matrix:
//
//  - a cold-cache thundering herd elects exactly one snapshot builder
//    (counters prove it: 1 build, N-1 hits);
//  - N reader threads pinning AlgoView::Of() and running BFS/PageRank on
//    the pinned views race one writer streaming edge batches, and every
//    observation is stamp-consistent: the fingerprint a reader computes
//    from its pinned view is bit-identical to the fingerprint precomputed
//    on a single-threaded replica at that same stamp;
//  - the serving engine under a concurrent writer returns only answers
//    that match the replica at the stamp each query pinned.
//
// Readers use the sequential kernels (SequentialDistances, parallel=false
// PageRank) and OpenMP is pinned to one thread, so the only concurrency
// under test is the reader/writer protocol itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "algo/pagerank.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ringo {
namespace {

// Numbering-independent snapshot fingerprint: id-weighted BFS distance sum
// from external node 0 plus id-weighted PageRank mass. Two views of the
// same logical graph fingerprint identically no matter how the delta path
// numbered their nodes.
struct Fingerprint {
  int64_t reached = 0;
  double bfs_sum = 0.0;
  double pr_sum = 0.0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintView(const AlgoView& view) {
  Fingerprint fp;
  const int64_t src = view.node_index().IndexOf(0);
  if (src >= 0) {
    std::vector<int64_t> dist;
    fp.reached = bfs::SequentialDistances(view, src, BfsDir::kOut, &dist);
    for (int64_t i = 0; i < static_cast<int64_t>(dist.size()); ++i) {
      if (dist[i] >= 0) {
        fp.bfs_sum += static_cast<double>(dist[i]) *
                      static_cast<double>(view.node_index().IdOf(i) + 1);
      }
    }
  }
  PageRankConfig cfg;
  cfg.max_iters = 5;
  cfg.tol = 0;
  const Result<std::vector<double>> pr =
      PageRankScoresOnView(view, cfg, /*parallel=*/false);
  if (pr.ok()) {
    for (size_t i = 0; i < pr->size(); ++i) {
      fp.pr_sum += (*pr)[i] * static_cast<double>(
                                  view.node_index().IdOf(i) + 1);
    }
  }
  return fp;
}

// Deterministic batch stream over (and slightly past) the node universe,
// so some batches create nodes and exercise the node-add journal path.
// Batches are pre-validated against `replica` (no-op candidates dropped),
// and the replica's post-batch fingerprints keyed by stamp become the
// oracle readers compare against.
std::vector<std::pair<std::vector<Edge>, std::vector<Edge>>> MakeBatchStream(
    DirectedGraph* replica, std::map<uint64_t, Fingerprint>* expected,
    uint64_t seed, int n_batches, int ops_per_batch, NodeId max_id) {
  Rng rng(seed);
  std::vector<std::pair<std::vector<Edge>, std::vector<Edge>>> batches;
  (*expected)[replica->MutationStamp()] =
      FingerprintView(*AlgoView::Of(*replica));
  while (static_cast<int>(batches.size()) < n_batches) {
    std::vector<Edge> ins, del;
    for (int i = 0; i < ops_per_batch; ++i) {
      // ~6% of inserts target ids just past the current universe.
      const NodeId hi = rng.UniformReal() < 0.06 ? max_id + 8 : max_id;
      ins.push_back({rng.UniformInt(0, max_id), rng.UniformInt(0, hi)});
      del.push_back({rng.UniformInt(0, max_id), rng.UniformInt(0, max_id)});
    }
    const uint64_t before = replica->MutationStamp();
    replica->ApplyEdgeBatch(ins, del);
    if (replica->MutationStamp() == before) continue;  // No-op; retry.
    (*expected)[replica->MutationStamp()] =
        FingerprintView(*AlgoView::Of(*replica));
    batches.push_back({std::move(ins), std::move(del)});
  }
  return batches;
}

TEST(ServingStressTest, ColdThunderingHerdBuildsExactlyOnce) {
  testing::ScopedNumThreads tc(1);
  metrics::SetEnabled(true);
  const DirectedGraph g = testing::RandomDirected(500, 2500, 0xC01D);

  const int64_t build0 = metrics::CounterValue("algo_view/build");
  const int64_t hit0 = metrics::CounterValue("algo_view/hit");

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const AlgoView>> views(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (!go.load(std::memory_order_acquire)) {
      }
      views[t] = AlgoView::Of(g);
    });
  }
  while (ready.load() < kThreads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // Exactly one thread built; everyone else waited for the same view.
  EXPECT_EQ(metrics::CounterValue("algo_view/build") - build0, 1);
  EXPECT_EQ(metrics::CounterValue("algo_view/hit") - hit0, kThreads - 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(views[t], views[0]);
    EXPECT_EQ(views[t]->snapshot_stamp(), g.MutationStamp());
  }
}

// The core reader/writer race: every pinned view must fingerprint exactly
// like the single-threaded replica at the stamp it claims to represent —
// at every reader count, with the delta path both on and off.
TEST(ServingStressTest, ReadersSeeStampConsistentSnapshotsUnderWriter) {
  testing::ScopedNumThreads tc(1);
  for (const bool delta_on : {true, false}) {
    SCOPED_TRACE(std::string("deltacsr=") + (delta_on ? "on" : "off"));
    deltacsr::ScopedEnable delta(delta_on);

    DirectedGraph g = testing::RandomDirected(300, 1200, 0xBEEF);
    DirectedGraph replica = g;
    std::map<uint64_t, Fingerprint> expected;
    const auto batches =
        MakeBatchStream(&replica, &expected, 0x57AA, 12, 60, 299);
    const uint64_t last_stamp = replica.MutationStamp();

    for (const int readers : testing::StressThreadCounts()) {
      if (readers < 2) continue;
      SCOPED_TRACE("readers=" + std::to_string(readers));
      DirectedGraph live = g;
      std::atomic<bool> done{false};
      std::atomic<int64_t> observations{0};
      std::vector<std::string> errors(readers);

      std::vector<std::thread> threads;
      for (int t = 0; t < readers; ++t) {
        threads.emplace_back([&, t] {
          while (!done.load(std::memory_order_acquire)) {
            const std::shared_ptr<const AlgoView> view = AlgoView::Of(live);
            const uint64_t stamp = view->snapshot_stamp();
            const auto it = expected.find(stamp);
            if (it == expected.end()) {
              errors[t] = "unknown stamp " + std::to_string(stamp);
              return;
            }
            if (!(FingerprintView(*view) == it->second)) {
              errors[t] = "fingerprint mismatch at stamp " +
                          std::to_string(stamp);
              return;
            }
            ++observations;
          }
        });
      }

      for (const auto& [ins, del] : batches) {
        live.ApplyEdgeBatch(ins, del);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Let readers observe the final state before stopping them.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();

      for (int t = 0; t < readers; ++t) {
        EXPECT_EQ(errors[t], "") << "reader " << t;
      }
      EXPECT_GT(observations.load(), 0);
      EXPECT_EQ(live.MutationStamp(), last_stamp);
      // The final pinned view matches the replica's final fingerprint.
      EXPECT_TRUE(FingerprintView(*AlgoView::Of(live)) ==
                  expected.at(last_stamp));
    }
  }
}

// End-to-end: the serving engine answers BFS queries while a writer
// streams batches; every completed answer must match the replica oracle
// at the stamp the query pinned.
TEST(ServingStressTest, EngineServesConsistentAnswersUnderWriter) {
  testing::ScopedNumThreads tc(1);
  DirectedGraph g = testing::RandomDirected(300, 1200, 0xFACE);
  DirectedGraph replica = g;
  std::map<uint64_t, Fingerprint> expected;
  const auto batches =
      MakeBatchStream(&replica, &expected, 0x7E57, 10, 50, 299);

  DirectedGraph live = g;
  serve::Session session("stress", &live);
  serve::Engine engine({.workers = 4, .queue_capacity = 256});

  std::thread writer([&] {
    for (const auto& [ins, del] : batches) {
      live.ApplyEdgeBatch(ins, del);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::future<serve::QueryResult>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(
        engine.Submit(session, {.kind = serve::QueryKind::kBfs,
                                .source = 0}));
  }
  writer.join();

  int64_t completed = 0;
  for (auto& f : futs) {
    const serve::QueryResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    const auto it = expected.find(r.snapshot_stamp);
    ASSERT_NE(it, expected.end())
        << "query pinned unknown stamp " << r.snapshot_stamp;
    EXPECT_EQ(r.rows, it->second.reached)
        << "stamp " << r.snapshot_stamp;
    ++completed;
  }
  EXPECT_EQ(completed, 200);
}

}  // namespace
}  // namespace ringo
