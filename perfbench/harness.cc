#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "util/parallel.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          double p) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, p));
  }
  return Median(std::move(per_window));
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  long long size_pages = 0, resident_pages = 0;
  in >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  return CPU_COUNT(&set);
}

ThreadScope::ThreadScope(int threads) : saved_(ringo::NumThreads()) {
  ringo::SetNumThreads(threads);
}

ThreadScope::~ThreadScope() { ringo::SetNumThreads(saved_); }

// ----------------------------------------------------------------- spans
namespace tracer {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};
std::atomic<int> g_next_tid{1};
std::mutex g_mu;
std::vector<SpanRec> g_spans;  // Guarded by g_mu.

thread_local int64_t tl_parent = 0;
thread_local int64_t tl_op = 0;
thread_local int tl_tid = 0;

int ThreadId() {
  if (tl_tid == 0) tl_tid = g_next_tid.fetch_add(1);
  return tl_tid;
}

std::string ModuleOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

// Length of the union of [start, end) intervals.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Record(SpanRec rec) {
  if (rec.tid == 0) rec.tid = ThreadId();
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(std::move(rec));
}

std::vector<SpanRec> Spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_spans;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRec>& spans) {
  int64_t epoch = 0;
  for (const SpanRec& s : spans) {
    if (epoch == 0 || s.start_ns < epoch) epoch = s.start_ns;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanRec& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"op\":%lld,"
                  "\"derived\":%s}}",
                  first ? "" : ",", s.name.c_str(), s.tid,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.op), s.derived ? "true" : "false");
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Attribution Analyze(const std::vector<SpanRec>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  Attribution a;
  for (const SpanRec& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    const auto it = kids.find(s.id);
    const int64_t covered =
        it == kids.end() ? 0 : std::min(dur, CoveredNs(it->second));
    if (s.parent == 0 && s.derived) {
      // Its children tile it by construction; nothing to check.
      ++a.derived_ops;
    } else if (s.parent == 0) {
      // A unit op: its own (self) time is whatever no module span covers.
      ++a.ops;
      const double un =
          dur > 0 ? static_cast<double>(dur - covered) / static_cast<double>(dur)
                  : 0.0;
      a.max_unattributed = std::max(a.max_unattributed, un);
      if (un > 0.05) ++a.flagged;
      a.self_ms["unattributed"] += NsToMs(dur - covered);
    } else {
      a.self_ms[ModuleOf(s.name)] += NsToMs(dur - covered);
    }
  }
  return a;
}

}  // namespace tracer

Span::Span(const char* name, bool is_op)
    : name_(name),
      start_ns_(NowNs()),
      id_(0),
      parent_(tracer::tl_parent),
      op_(tracer::tl_op),
      saved_op_(tracer::tl_op) {
  if (!tracer::Enabled()) return;
  id_ = tracer::NewId();
  if (is_op) {
    op_ = id_;
    tracer::tl_op = id_;
  }
  tracer::tl_parent = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  tracer::tl_parent = parent_;
  tracer::tl_op = saved_op_;
  tracer::Record({name_, start_ns_, NowNs(), id_, parent_, op_, 0});
}

// ---------------------------------------------------------------- report
void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.push_back({key, "\"" + value + "\""});
}

void Report::Note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  notes_.push_back({key, buf});
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Wrong(const std::string& what) {
  ++wrong_;
  ++failed_;
  if (wrong_ <= 10) std::fprintf(stderr, "perfbench: wrong answer: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << "}, \"provenance\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << notes_[i].first << "\": " << notes_[i].second;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
