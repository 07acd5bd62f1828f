// RAII trace spans (DESIGN.md §8): the structured side of Ringo's
// observability layer. A span brackets one operator (or one phase of an
// operator), records wall time, the resident-memory change and the
// process's minor page faults across its lifetime, and custom numeric
// attributes (rows, edges, radix passes, rehash counts), and nests: spans
// opened while another span is live on the same thread become its
// children (depth-tracked; the Chrome viewer nests by timestamps).
//
//   Result<TablePtr> Table::OrderBy(...) {
//     RINGO_TRACE_SPAN("Table/OrderBy");
//     ...
//   }
//
//   trace::Span span("TableToGraph/sort");
//   span.AddAttr("rows", n);
//
// Completed spans land in per-thread buffers (appends take only the
// owning buffer's uncontended mutex) capped at kMaxSpansPerThread;
// overflow is dropped and counted, never blocking the workload. Exports:
//   * ChromeTraceJson() / ExportChromeTrace(path) — Chrome trace_event
//     JSON ("X" complete events; open chrome://tracing or Perfetto);
//   * FlatStats() — per-name aggregate (count, total, max) for the flat
//     stats table;
//   * LastRootSpan() — the most recently completed depth-0 span, backing
//     Ringo::LastQueryStats().
//
// Spans obey metrics::Enabled(): when metrics are off a span costs one
// relaxed load in the constructor and nothing else.
#ifndef RINGO_UTIL_TRACE_H_
#define RINGO_UTIL_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ringo {
namespace trace {

// Per-thread completed-span cap; beyond it spans are dropped (see
// DroppedSpans). Generous for operator-level tracing: a benchmark loop
// producing ~10 spans per iteration fills it after ~6k iterations.
constexpr int64_t kMaxSpansPerThread = int64_t{1} << 16;

class Span {
 public:
  // `name` must outlive the span (string literals in practice).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches a numeric attribute; exported into the Chrome "args" object
  // and LastRootSpan(). No-ops when the span is inactive.
  void AddAttr(const char* key, int64_t value);
  void AddAttr(const char* key, double value);

  bool active() const { return active_; }

 private:
  bool active_;
  const char* name_;
  int64_t start_ns_;
  int64_t start_rss_kb_;
  int64_t start_minflt_;
  int depth_;
  std::vector<std::pair<std::string, int64_t>> int_attrs_;
  std::vector<std::pair<std::string, double>> float_attrs_;
};

// One completed span, as stored in the thread buffers and returned by
// Spans() for tests and custom exporters.
struct SpanEvent {
  std::string name;
  int64_t start_ns = 0;      // Relative to the process trace epoch.
  int64_t dur_ns = 0;
  // Change of the process's current resident set size (KB) from the
  // span's open to its close: memory touched and not yet freed. Negative
  // when the span freed more than it touched. Other threads' allocations
  // in that window count too.
  int64_t rss_delta_kb = 0;
  // Minor page faults the process took from the span's open to its close
  // (getrusage): fresh pages touched, by any thread in that window.
  int64_t minflt = 0;
  int tid = 0;               // Dense per-thread index.
  int depth = 0;             // 0 = root span.
  std::vector<std::pair<std::string, int64_t>> int_attrs;
  std::vector<std::pair<std::string, double>> float_attrs;
};

// Aggregate of all completed spans sharing a name.
struct FlatStat {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
  int64_t minflt = 0;  // Summed over the spans.
};

// Summary of the most recent completed root (depth-0) span; the engine
// surfaces this as Ringo::LastQueryStats().
struct QueryStats {
  bool valid = false;
  std::string name;
  double wall_ms = 0.0;
  int64_t rss_delta_kb = 0;
  int64_t minflt = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
};

// Copies of every buffered span (start-time ordered within a thread, not
// globally). Safe while other threads keep tracing.
std::vector<SpanEvent> Spans();

// Per-name aggregates sorted by total time descending.
std::vector<FlatStat> FlatStats();

// Chrome trace_event JSON ({"traceEvents": [...]}); microsecond
// timestamps, pid 1, one tid per recording thread.
std::string ChromeTraceJson();
Status ExportChromeTrace(const std::string& path);

// Aligned text rendering of FlatStats().
std::string RenderFlatStats();

QueryStats LastRootSpan();

// Spans discarded because a thread buffer was full.
int64_t DroppedSpans();

// Nesting depth of the calling thread (open spans). For tests.
int CurrentDepth();

// Discards all buffered spans and the last-root record. Buffers of
// threads holding open spans survive (their events complete later).
void Clear();

}  // namespace trace
}  // namespace ringo

#define RINGO_TRACE_CONCAT_(a, b) a##b
#define RINGO_TRACE_CONCAT(a, b) RINGO_TRACE_CONCAT_(a, b)

// Opens an anonymous span covering the rest of the enclosing scope. For
// spans that need attributes, declare a named `trace::Span` instead.
#define RINGO_TRACE_SPAN(name) \
  ::ringo::trace::Span RINGO_TRACE_CONCAT(_ringo_trace_span_, __LINE__)(name)

#endif  // RINGO_UTIL_TRACE_H_
