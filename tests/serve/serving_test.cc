// Serving-engine unit tests (DESIGN.md §12): worker-pool admission,
// query correctness against direct kernel runs, deterministic overload
// shedding, deadline handling (queued and mid-kernel), and the load
// harnesses. Overload and deadline cases use the synthetic kSleep query,
// whose duration is controlled, so the assertions never depend on kernel
// timing.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "algo/pagerank.h"
#include "query/query.h"
#include "serve/engine.h"
#include "serve/query_mix.h"
#include "serve/session.h"
#include "serve/worker_pool.h"
#include "table/table.h"
#include "test_support.h"
#include "util/metrics.h"

namespace ringo {
namespace serve {
namespace {

// Counter/gauge deltas are asserted against a baseline so the tests hold
// regardless of what earlier tests in the binary recorded.
struct ServeCounters {
  int64_t submitted, admitted, shed, completed, deadline_miss;
  static ServeCounters Read() {
    return {metrics::CounterValue("serve/submitted"),
            metrics::CounterValue("serve/admitted"),
            metrics::CounterValue("serve/shed"),
            metrics::CounterValue("serve/completed"),
            metrics::CounterValue("serve/deadline_miss")};
  }
};

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics::SetEnabled(true); }
};

TEST_F(ServingTest, WorkerPoolBoundsItsQueue) {
  WorkerPool pool(1, 2);
  // Park the single worker so queued tasks stay queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> running{false};
  ASSERT_TRUE(pool.TrySubmit([&] {
    running.store(true);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  }));
  while (!running.load()) {
  }
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }));
  EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }));
  EXPECT_EQ(pool.QueueDepth(), 2);
  // Queue full: refused without blocking.
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }));
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();  // Drains the two admitted tasks.
  EXPECT_EQ(ran.load(), 2);
  // After shutdown nothing is admitted.
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }));
}

TEST_F(ServingTest, BfsQueryMatchesDirectRun) {
  const DirectedGraph g = testing::RandomDirected(200, 800, 0x5e1);
  Session session("s", &g);
  Engine engine({.workers = 2, .queue_capacity = 8});

  QueryResult r = engine.Submit(session, {.kind = QueryKind::kBfs,
                                          .source = 7}).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();

  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  std::vector<int64_t> dist;
  const int64_t reached = bfs::SequentialDistances(
      *view, view->node_index().IndexOf(7), BfsDir::kOut, &dist);
  double sum = 0.0;
  for (const int64_t d : dist) {
    if (d >= 0) sum += static_cast<double>(d);
  }
  EXPECT_EQ(r.rows, reached);
  EXPECT_EQ(r.checksum, sum);
  EXPECT_EQ(r.snapshot_stamp, g.MutationStamp());
  EXPECT_GE(r.latency_ms, r.run_ms);
}

TEST_F(ServingTest, PageRankQueryMatchesDirectRun) {
  const DirectedGraph g = testing::RandomDirected(100, 400, 0x5e2);
  Session session("s", &g);
  Engine engine({.workers = 2, .queue_capacity = 8});

  QueryResult r = engine.Submit(session, {.kind = QueryKind::kPageRank,
                                          .iters = 7}).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();

  PageRankConfig cfg;
  cfg.max_iters = 7;
  cfg.tol = 0;
  const Result<std::vector<double>> scores =
      PageRankScoresOnView(*AlgoView::Of(g), cfg);
  ASSERT_TRUE(scores.ok());
  double sum = 0.0;
  for (size_t i = 0; i < scores->size(); ++i) {
    sum += (*scores)[i] * static_cast<double>(i + 1);
  }
  EXPECT_EQ(r.rows, static_cast<int64_t>(scores->size()));
  EXPECT_EQ(r.checksum, sum);
}

TEST_F(ServingTest, TableTopKQueryReadsPinnedTable) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e3);
  const TablePtr table = testing::MakeIntTable(
      {"src", "dst"}, {{5, 0}, {9, 1}, {1, 2}, {7, 3}, {3, 4}});
  Session session("s", &g, table);
  Engine engine({.workers = 1, .queue_capacity = 8});

  QueryResult r = engine.Submit(session, {.kind = QueryKind::kTableTopK,
                                          .column = "src",
                                          .k = 3}).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, 3);
  EXPECT_EQ(r.checksum, 9.0 + 7.0 + 5.0);  // Top-3 of the src column.
}

TEST_F(ServingTest, MissingSourceAndMissingTableAreTypedErrors) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e4);
  Session session("s", &g);  // No table.
  Engine engine({.workers = 1, .queue_capacity = 8});

  const ServeCounters before = ServeCounters::Read();
  const int64_t failed_before = metrics::CounterValue("serve/failed");
  QueryResult bfs = engine.Submit(session, {.kind = QueryKind::kBfs,
                                            .source = 10'000}).get();
  EXPECT_TRUE(bfs.status.IsNotFound());
  QueryResult topk =
      engine.Submit(session, {.kind = QueryKind::kTableTopK}).get();
  EXPECT_TRUE(topk.status.IsInvalidArgument());
  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.completed - before.completed, 0);
  EXPECT_EQ(metrics::CounterValue("serve/failed") - failed_before, 2);
}

TEST_F(ServingTest, OverloadShedsWithTypedStatus) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e5);
  Session session("s", &g);
  const ServeCounters before = ServeCounters::Read();

  // One worker, queue of two, seven 80ms sleep queries submitted in
  // microseconds: at most one runs and two queue, so >= 4 must shed.
  Engine engine({.workers = 1, .queue_capacity = 2});
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 7; ++i) {
    futs.push_back(engine.Submit(session, {.kind = QueryKind::kSleep,
                                           .sleep_ms = 80}));
  }
  int shed = 0, ok = 0;
  for (auto& f : futs) {
    const QueryResult r = f.get();
    if (r.status.IsOverloaded()) {
      ++shed;
      EXPECT_EQ(r.snapshot_stamp, 0u);  // Never pinned a snapshot.
    } else {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ++ok;
    }
  }
  EXPECT_GE(shed, 4);
  EXPECT_EQ(shed + ok, 7);

  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.submitted - before.submitted, 7);
  EXPECT_EQ(after.shed - before.shed, shed);
  EXPECT_EQ(after.admitted - before.admitted, ok);
  EXPECT_EQ(after.completed - before.completed, ok);
}

TEST_F(ServingTest, DeadlineCutsRunningQueryShort) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e6);
  Session session("s", &g);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const ServeCounters before = ServeCounters::Read();

  // 30ms deadline against a 10s sleep: the checkpoint inside kSleep's 1ms
  // slices observes the expired token and bails out early.
  QueryResult r = engine.Submit(session, {.kind = QueryKind::kSleep,
                                          .sleep_ms = 10'000,
                                          .deadline_ms = 30}).get();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_EQ(r.rows, 0);         // Partial result discarded.
  EXPECT_LT(r.latency_ms, 5'000.0);  // Cut short, nowhere near 10s.
  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, 1);
  EXPECT_EQ(after.completed - before.completed, 0);
}

TEST_F(ServingTest, DeadlineExpiredInQueueSkipsExecution) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e7);
  Session session("s", &g);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const ServeCounters before = ServeCounters::Read();

  // The 100ms blocker occupies the only worker; the 20ms-deadline query
  // behind it is already expired when dequeued and never pins a snapshot.
  std::future<QueryResult> blocker =
      engine.Submit(session, {.kind = QueryKind::kSleep, .sleep_ms = 100});
  QueryResult r = engine.Submit(session, {.kind = QueryKind::kSleep,
                                          .sleep_ms = 1,
                                          .deadline_ms = 20}).get();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_EQ(r.snapshot_stamp, 0u);
  EXPECT_TRUE(blocker.get().status.ok());
  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, 1);
}

// Regression: Submit used to fold q.deadline_ms < 0 into "use the engine
// default", silently substituting a policy for what is a caller bug. A
// negative deadline is now rejected before the queue with a typed
// kInvalidArgument — never admitted, never run.
TEST_F(ServingTest, NegativeDeadlineRejectedBeforeQueue) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5e9);
  Session session("s", &g);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const ServeCounters before = ServeCounters::Read();
  const int64_t rejected_before = metrics::CounterValue("serve/rejected");

  QueryResult r = engine.Submit(session, {.kind = QueryKind::kSleep,
                                          .sleep_ms = 1,
                                          .deadline_ms = -5}).get();
  EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
  EXPECT_EQ(r.snapshot_stamp, 0u);  // Never reached a worker.

  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(metrics::CounterValue("serve/rejected") - rejected_before, 1);
  EXPECT_EQ(after.admitted - before.admitted, 0);
  EXPECT_EQ(after.completed - before.completed, 0);
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, 0);
}

// Regression: the ms -> absolute-ns deadline conversion used to overflow
// int64 for huge relative deadlines, wrapping into an already-passed
// deadline that killed the query on arrival. The conversion now saturates
// to "effectively no deadline" and the query completes.
TEST_F(ServingTest, HugeDeadlineSaturatesInsteadOfOverflowing) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5ea);
  Session session("s", &g);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const ServeCounters before = ServeCounters::Read();

  QueryResult r =
      engine.Submit(session, {.kind = QueryKind::kSleep,
                              .sleep_ms = 1,
                              .deadline_ms = INT64_MAX / 1'000}).get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.completed - before.completed, 1);
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, 0);
}

TEST_F(ServingTest, ScriptQueryRunsAgainstSessionTable) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5eb);
  const TablePtr table = testing::MakeIntTable(
      {"src", "dst"}, {{5, 0}, {9, 1}, {1, 2}, {7, 3}, {3, 4}});
  Session session("s", &g, table);
  Engine engine({.workers = 1, .queue_capacity = 8});

  // The session table is bound as `t`; top-3 by src keeps (9,1) (7,3)
  // (5,0), and the checksum sums every numeric cell of the result.
  QueryResult r = engine.Submit(session,
                                {.kind = QueryKind::kScript,
                                 .script = "top_k(t, \"src\", 3)"}).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, 3);
  EXPECT_EQ(r.checksum, (9.0 + 7.0 + 5.0) + (1.0 + 3.0 + 0.0));
}

TEST_F(ServingTest, ScriptErrorsAreTypedWithPosition) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5ec);
  const TablePtr table = testing::MakeIntTable({"src", "dst"}, {{1, 2}});
  Session session("s", &g, table);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const int64_t failed_before = metrics::CounterValue("serve/failed");

  // Unknown column: planned against the bound table's schema, so the
  // failure is a typed InvalidArgument carrying the source position.
  QueryResult r = engine.Submit(session,
                                {.kind = QueryKind::kScript,
                                 .script = "select(t, \"nope = 1\")"}).get();
  EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
  EXPECT_NE(r.status.message().find("line 1"), std::string::npos)
      << r.status.ToString();
  EXPECT_EQ(metrics::CounterValue("serve/failed") - failed_before, 1);

  // No session table: `t` is simply not bound, so the planner reports
  // an undefined variable at its use site (a script need not mention
  // `t` at all, so there is no earlier point to fail).
  Session bare("bare", &g);
  QueryResult missing =
      engine.Submit(bare, {.kind = QueryKind::kScript,
                           .script = "top_k(t, \"src\", 1)"}).get();
  EXPECT_TRUE(missing.status.IsInvalidArgument())
      << missing.status.ToString();
  EXPECT_NE(missing.status.message().find("undefined variable 't'"),
            std::string::npos)
      << missing.status.ToString();
}

// A served script reads no server files: load() of an existing file fails
// with a typed PermissionDenied, while the same script through RunScript
// (what embedders and the CLI call) loads it.
TEST_F(ServingTest, ServedScriptLoadIsRefused) {
  const std::string path = ::testing::TempDir() + "/served_load.tsv";
  {
    std::ofstream f(path);
    f << "1\t2\n3\t4\n";
  }
  const std::string script = "load(\"" + path + "\", \"a:int,b:int\")";
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5ee);
  const TablePtr table = testing::MakeIntTable({"src", "dst"}, {{1, 2}});
  Session session("s", &g, table);
  Engine engine({.workers = 1, .queue_capacity = 8});

  QueryResult r =
      engine.Submit(session, {.kind = QueryKind::kScript, .script = script})
          .get();
  EXPECT_TRUE(r.status.IsPermissionDenied()) << r.status.ToString();
  EXPECT_EQ(r.rows, 0);
  EXPECT_EQ(r.checksum, 0.0);

  Result<query::RunResult> direct = query::RunScript(script);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->rows, 2);
  EXPECT_EQ(direct->checksum, 1.0 + 2.0 + 3.0 + 4.0);
  std::remove(path.c_str());
}

TEST_F(ServingTest, ScriptDeadlineExpiredInQueueIsAMiss) {
  const DirectedGraph g = testing::RandomDirected(10, 20, 0x5ed);
  const TablePtr table = testing::MakeIntTable({"src", "dst"}, {{1, 2}});
  Session session("s", &g, table);
  Engine engine({.workers = 1, .queue_capacity = 8});
  const ServeCounters before = ServeCounters::Read();

  // The blocker holds the only worker past the script's 20ms deadline, so
  // the script query expires in the queue and never executes a plan node.
  std::future<QueryResult> blocker =
      engine.Submit(session, {.kind = QueryKind::kSleep, .sleep_ms = 100});
  QueryResult r = engine.Submit(session,
                                {.kind = QueryKind::kScript,
                                 .script = "top_k(t, \"src\", 1)",
                                 .deadline_ms = 20}).get();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_EQ(r.rows, 0);
  EXPECT_TRUE(blocker.get().status.ok());
  const ServeCounters after = ServeCounters::Read();
  EXPECT_EQ(after.deadline_miss - before.deadline_miss, 1);
}

TEST_F(ServingTest, QueriesPinTheStampTheySubmittedAgainst) {
  DirectedGraph g = testing::RandomDirected(50, 200, 0x5e8);
  Session session("s", &g);
  Engine engine({.workers = 1, .queue_capacity = 8});

  QueryResult r1 = engine.Submit(session, {.kind = QueryKind::kBfs,
                                           .source = 0}).get();
  const uint64_t stamp1 = g.MutationStamp();
  EXPECT_EQ(r1.snapshot_stamp, stamp1);

  g.ApplyEdgeBatch({{0, 49}, {49, 1}}, {});
  QueryResult r2 = engine.Submit(session, {.kind = QueryKind::kBfs,
                                           .source = 0}).get();
  EXPECT_EQ(r2.snapshot_stamp, g.MutationStamp());
  EXPECT_GT(r2.snapshot_stamp, stamp1);
}

TEST_F(ServingTest, ClosedLoopHarnessCompletesEverything) {
  const DirectedGraph g = testing::RandomDirected(200, 800, 0x5e9);
  Session session("s", &g,
                  testing::MakeIntTable({"src", "dst"},
                                        {{1, 2}, {3, 4}, {5, 6}}));
  Engine engine({.workers = 2, .queue_capacity = 64});

  MixConfig mix;
  mix.max_node_id = 199;
  mix.pagerank_iters = 3;
  mix.topk_k = 2;
  const LoadStats stats = RunClosedLoop(engine, session, mix, /*seed=*/42,
                                        /*clients=*/4,
                                        /*queries_per_client=*/10);
  EXPECT_EQ(stats.issued, 40);
  EXPECT_EQ(stats.ok, 40);  // Closed loop never outruns the queue.
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.Qps(), 0.0);
  EXPECT_LE(stats.PercentileMs(50), stats.PercentileMs(99));
}

TEST_F(ServingTest, OpenLoopHarnessAccountsForEveryQuery) {
  const DirectedGraph g = testing::RandomDirected(100, 400, 0x5ea);
  Session session("s", &g,
                  testing::MakeIntTable({"src", "dst"}, {{1, 2}, {3, 4}}));
  Engine engine({.workers = 2, .queue_capacity = 4});

  MixConfig mix;
  mix.max_node_id = 99;
  mix.pagerank_iters = 3;
  mix.topk_k = 2;
  const LoadStats stats = RunOpenLoop(engine, session, mix, /*seed=*/7,
                                      /*rate_qps=*/0.0, /*total=*/50);
  EXPECT_EQ(stats.issued, 50);
  EXPECT_EQ(stats.ok + stats.shed + stats.deadline_miss + stats.failed, 50);
  EXPECT_EQ(stats.failed, 0);
}

}  // namespace
}  // namespace serve
}  // namespace ringo
