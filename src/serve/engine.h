// The concurrent query-serving engine (DESIGN.md §12).
//
// Submit() hands a Query to a fixed worker pool behind a bounded admission
// queue and returns a std::future<QueryResult>:
//
//  - Overload: when the queue is full the query is shed immediately — the
//    future is already satisfied with a kOverloaded Status; nothing queues
//    unboundedly and the caller finds out in microseconds.
//  - Deadlines: each query gets an absolute deadline (its own, or the
//    engine default; deadline_ms = 0 means "engine default", negative is
//    rejected as kInvalidArgument before queuing, and huge values saturate
//    to "no deadline" instead of overflowing). A query that expires while
//    still queued is answered kDeadlineExceeded without running; one that
//    expires mid-kernel is cut short via the thread's cancel::CancelToken
//    (kernels poll cancel::Checkpoint() once per round) and its partial
//    result is discarded — cancellation bounds latency, it never yields
//    approximate answers.
//  - Consistency: the worker pins one snapshot through Session::Pin() and
//    the query reads only that snapshot, so answers are consistent as of
//    the stamp recorded in QueryResult even while writers stream batches.
//
// Metrics: counters serve/{submitted,admitted,rejected,shed,completed,
// failed,deadline_miss} and gauge serve/queue_depth; every query runs
// under a "Serve/Query" trace span.
#ifndef RINGO_SERVE_ENGINE_H_
#define RINGO_SERVE_ENGINE_H_

#include <cstdint>
#include <future>

#include "serve/query.h"
#include "serve/session.h"
#include "serve/worker_pool.h"

namespace ringo {
namespace serve {

struct EngineOptions {
  int workers = 4;
  int64_t queue_capacity = 64;
  // Default relative deadline for queries that don't set one; <= 0 means
  // no deadline.
  int64_t default_deadline_ms = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Submits `q` against `session`. The session must stay alive until the
  // returned future is ready. Never blocks: on overload the future is
  // already satisfied with Status::Overloaded, and a malformed query
  // (negative deadline_ms) with Status::InvalidArgument.
  std::future<QueryResult> Submit(const Session& session, Query q);

  // Stops admission, drains admitted queries, joins workers. Idempotent;
  // the destructor calls it. Futures from admitted queries all resolve.
  void Shutdown();

  int64_t QueueDepth() const { return pool_.QueueDepth(); }
  const EngineOptions& options() const { return opts_; }

 private:
  QueryResult Execute(const Session& session, const Query& q,
                      int64_t submit_ns, int64_t deadline_ns);

  EngineOptions opts_;
  WorkerPool pool_;
};

}  // namespace serve
}  // namespace ringo

#endif  // RINGO_SERVE_ENGINE_H_
