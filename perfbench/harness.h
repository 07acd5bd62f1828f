// Shared machinery of the benchmark binary: clocks and percentiles, the
// benchmark-side span recorder that attributes each unit op's wall time to
// the library modules it called, the thread-count scope, and the result
// report the binary prints.
//
// Spans are recorded from the benchmark's own files, around each call into
// a module's public API; no span comes from inside the library. A span is
// named "<module>.<call>" (table_io, table, core, graph, algo, query,
// serve, util), and every span of one unit op shares that op's id.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time
int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

// The median over windows of each window's p-th percentile. A stall of
// the shared machine then moves the windows it covers, not the result.
double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          double p);

// Resident set size now (not the high-water mark), from /proc/self/statm.
double CurrentRssMb();

// CPUs this process may run on.
int AvailableCores();

// Sets the library's thread count for the scope, restoring it after.
class ThreadScope {
 public:
  explicit ThreadScope(int threads);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

// ----------------------------------------------------------------- spans
struct SpanRec {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 for a root span.
  int64_t op = 0;      // Id of the unit op's root span.
  int tid = 0;
  // Rebuilt after the fact from timings the library reported, not timed
  // by the benchmark; a derived op is left out of the attribution check.
  bool derived = false;
};

namespace tracer {

// Off by default: spans still time themselves but record nothing.
void SetEnabled(bool on);
bool Enabled();

int64_t NewId();
void Record(SpanRec rec);
std::vector<SpanRec> Spans();

// Writes the spans as Chrome trace_event JSON, the format the library's
// trace::ExportChromeTrace uses, with id/parent/op in each event's args.
bool WriteChromeTrace(const std::string& path, const std::vector<SpanRec>& spans);

// Per unit op the benchmark timed itself: the share of its wall time its
// direct child spans leave uncovered. Per module: self time (span time
// minus child-covered time).
struct Attribution {
  int64_t ops = 0;
  int64_t derived_ops = 0;          // Not checked; see SpanRec::derived.
  int64_t flagged = 0;              // Ops with unattributed share > 5%.
  double max_unattributed = 0.0;
  std::map<std::string, double> self_ms;  // Module -> total self time.
};
Attribution Analyze(const std::vector<SpanRec>& spans);

}  // namespace tracer

// RAII span around one call into a module. Always measures its duration
// (callers use it as their stopwatch), and records itself when the tracer
// is enabled. Nested spans on one thread become children.
class Span {
 public:
  explicit Span(const char* name) : Span(name, false) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double ElapsedMs() const { return NsToMs(NowNs() - start_ns_); }

 protected:
  Span(const char* name, bool is_op);

 private:
  const char* name_;
  int64_t start_ns_;
  int64_t id_;
  int64_t parent_;
  int64_t op_;
  int64_t saved_op_;
};

// The root span of one unit op (a tag pipeline, an analytics round, a
// query, an update batch); spans opened beneath it share its id.
class OpSpan : public Span {
 public:
  explicit OpSpan(const char* name) : Span(name, true) {}
};

// ---------------------------------------------------------------- report
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  // Unit ops attempted, and how many failed (error, shed or deadline
  // miss). Wrong() counts a wrong answer as failed too. The workloads are
  // sized so that nothing fails on correct code: any failure makes the
  // run incorrect.
  void Count(int64_t attempted, int64_t failed);
  void Wrong(const std::string& what);

  bool correct() const { return failed_ == 0; }

  // One JSON object: correct, attempted, failed, metrics, provenance.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t wrong_ = 0;
};

// ---------------------------------------------------------------- inputs
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;         // The process's core count.
  int setup_reps = 5;
  std::string work_dir;    // Scratch files (generated TSV, trace output).
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
