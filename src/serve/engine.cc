#include "serve/engine.h"

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs_engine.h"
#include "algo/pagerank.h"
#include "query/query.h"
#include "table/table.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace serve {

namespace {

// Runs one query against its pinned context. Pure function of the context
// (plus wall time for kSleep); fills rows/checksum/status.
void RunKernel(const Query& q, const QueryContext& ctx, QueryResult* r) {
  switch (q.kind) {
    case QueryKind::kBfs: {
      const int64_t src = ctx.view->node_index().IndexOf(q.source);
      if (src < 0) {
        r->status = Status::NotFound("BFS source not in snapshot");
        return;
      }
      std::vector<int64_t> dist;
      r->rows = bfs::SequentialDistances(*ctx.view, src, BfsDir::kOut, &dist);
      double sum = 0.0;
      for (const int64_t d : dist) {
        if (d >= 0) sum += static_cast<double>(d);
      }
      r->checksum = sum;
      return;
    }
    case QueryKind::kPageRank: {
      PageRankConfig cfg;
      cfg.max_iters = q.iters;
      cfg.tol = 0;  // Fixed round count, like the paper's timed runs.
      Result<std::vector<double>> scores =
          PageRankScoresOnView(*ctx.view, cfg);
      if (!scores.ok()) {
        r->status = scores.status();
        return;
      }
      r->rows = static_cast<int64_t>(scores->size());
      double sum = 0.0;
      for (size_t i = 0; i < scores->size(); ++i) {
        sum += (*scores)[i] * static_cast<double>(i + 1);
      }
      r->checksum = sum;
      return;
    }
    case QueryKind::kTableTopK: {
      if (ctx.table == nullptr) {
        r->status = Status::InvalidArgument("session has no table");
        return;
      }
      Result<TablePtr> top = ctx.table->TopK(q.column, q.k);
      if (!top.ok()) {
        r->status = top.status();
        return;
      }
      const Table& t = **top;
      r->rows = t.NumRows();
      const Result<int> col = t.FindColumn(q.column);
      if (col.ok()) {
        const Column& c = t.column(*col);
        double sum = 0.0;
        for (int64_t i = 0; i < t.NumRows(); ++i) {
          sum += c.type() == ColumnType::kFloat
                     ? c.GetFloat(i)
                     : static_cast<double>(c.GetInt(i));
        }
        r->checksum = sum;
      }
      return;
    }
    case QueryKind::kScript: {
      // Scripted query through the declarative front-end. The session
      // table (if any) is visible to the script as `t`; the executor
      // polls the installed cancel token between plan nodes, so the
      // engine's deadline machinery applies unchanged. A served script
      // reads no server files: load() fails with PermissionDenied.
      query::RunOptions opts;
      opts.pool = ctx.table != nullptr ? ctx.table->pool() : nullptr;
      opts.bindings["t"] = ctx.table;
      opts.load = query::LoadPolicy::kRefuse;
      Result<query::RunResult> res = query::RunScript(q.script, opts);
      if (!res.ok()) {
        r->status = res.status();
        return;
      }
      r->rows = res->rows;
      r->checksum = res->checksum;
      return;
    }
    case QueryKind::kSleep: {
      // Deterministic time-filler: sleep in 1ms slices so cancellation
      // lands within about a millisecond of the deadline.
      const int64_t end_ns = cancel::NowNanos() + q.sleep_ms * 1'000'000;
      int64_t slices = 0;
      while (cancel::NowNanos() < end_ns) {
        if (cancel::Checkpoint()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++slices;
      }
      r->rows = slices;
      r->checksum = static_cast<double>(slices);
      return;
    }
  }
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kPageRank: return "pagerank";
    case QueryKind::kTableTopK: return "table_topk";
    case QueryKind::kSleep: return "sleep";
    case QueryKind::kScript: return "script";
  }
  return "unknown";
}

Engine::Engine(EngineOptions opts)
    : opts_(opts), pool_(opts.workers, opts.queue_capacity) {}

Engine::~Engine() { Shutdown(); }

void Engine::Shutdown() { pool_.Shutdown(); }

std::future<QueryResult> Engine::Submit(const Session& session, Query q) {
  RINGO_COUNTER_ADD("serve/submitted", 1);
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> fut = promise->get_future();

  // A negative deadline is a caller bug, not "use the default": reject it
  // up front instead of silently substituting a policy the caller never
  // asked for.
  if (q.deadline_ms < 0) {
    RINGO_COUNTER_ADD("serve/rejected", 1);
    QueryResult bad;
    bad.kind = q.kind;
    bad.status = Status::InvalidArgument(
        "deadline_ms must be >= 0 (0 = engine default), got " +
        std::to_string(q.deadline_ms));
    promise->set_value(std::move(bad));
    return fut;
  }

  const int64_t submit_ns = cancel::NowNanos();
  const int64_t rel_ms =
      q.deadline_ms > 0 ? q.deadline_ms : opts_.default_deadline_ms;
  // Saturating ms → absolute-ns conversion: a huge relative deadline means
  // "effectively none", and the naive multiply would overflow int64 into
  // an already-passed deadline.
  int64_t deadline_ns = INT64_MAX;
  if (rel_ms > 0 && rel_ms <= (INT64_MAX - submit_ns) / 1'000'000) {
    deadline_ns = submit_ns + rel_ms * 1'000'000;
  }

  const Session* s = &session;
  const bool admitted =
      pool_.TrySubmit([this, s, q = std::move(q), promise, submit_ns,
                       deadline_ns]() mutable {
        promise->set_value(Execute(*s, q, submit_ns, deadline_ns));
      });
  if (!admitted) {
    RINGO_COUNTER_ADD("serve/shed", 1);
    QueryResult shed;
    shed.kind = q.kind;
    shed.status = Status::Overloaded("admission queue full");
    promise->set_value(std::move(shed));
    return fut;
  }
  RINGO_COUNTER_ADD("serve/admitted", 1);
  metrics::GaugeSet("serve/queue_depth", pool_.QueueDepth());
  return fut;
}

QueryResult Engine::Execute(const Session& session, const Query& q,
                            int64_t submit_ns, int64_t deadline_ns) {
  trace::Span span("Serve/Query");
  span.AddAttr("kind", static_cast<int64_t>(q.kind));

  QueryResult r;
  r.kind = q.kind;
  const int64_t start_ns = cancel::NowNanos();
  r.queue_ms = static_cast<double>(start_ns - submit_ns) / 1e6;
  metrics::GaugeSet("serve/queue_depth", pool_.QueueDepth());

  if (start_ns >= deadline_ns) {
    // Expired while queued: answer without touching the graph.
    RINGO_COUNTER_ADD("serve/deadline_miss", 1);
    r.status = Status::DeadlineExceeded("deadline passed while queued");
    r.latency_ms = static_cast<double>(cancel::NowNanos() - submit_ns) / 1e6;
    return r;
  }

  // One reusable token per worker thread; kernels poll it through the
  // thread-local installed by ScopedToken.
  static thread_local cancel::CancelToken token;
  token.Reset();
  token.SetDeadline(deadline_ns);
  cancel::ScopedToken scoped(&token);

  const QueryContext ctx = session.Pin();
  r.snapshot_stamp = ctx.snapshot_stamp;
  span.AddAttr("stamp", static_cast<int64_t>(ctx.snapshot_stamp));

  RunKernel(q, ctx, &r);

  if (r.status.ok() && token.ShouldStop()) {
    // The kernel was cut short (or the deadline passed as it finished):
    // discard the partial result rather than return an approximation.
    RINGO_COUNTER_ADD("serve/deadline_miss", 1);
    r.status = Status::DeadlineExceeded("deadline passed mid-query");
    r.rows = 0;
    r.checksum = 0.0;
  } else if (r.status.IsDeadlineExceeded()) {
    // Kernels that surface the cancellation as a Status themselves (the
    // script executor does, between plan nodes) are deadline misses too,
    // not generic failures.
    RINGO_COUNTER_ADD("serve/deadline_miss", 1);
    r.rows = 0;
    r.checksum = 0.0;
  } else if (r.status.ok()) {
    RINGO_COUNTER_ADD("serve/completed", 1);
  } else {
    RINGO_COUNTER_ADD("serve/failed", 1);
  }

  const int64_t end_ns = cancel::NowNanos();
  r.run_ms = static_cast<double>(end_ns - start_ns) / 1e6;
  r.latency_ms = static_cast<double>(end_ns - submit_ns) / 1e6;
  span.AddAttr("queue_ms", r.queue_ms);
  span.AddAttr("run_ms", r.run_ms);
  return r;
}

}  // namespace serve
}  // namespace ringo
