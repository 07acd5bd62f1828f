#include "util/trace.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/metrics.h"

namespace ringo {
namespace trace {

namespace {

// All span timestamps are relative to this per-process anchor so exported
// traces start near t=0.
int64_t TraceEpoch() {
  static const int64_t epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return epoch;
}

int64_t NowNanos() {
  // Fetch the epoch BEFORE reading the clock: with the opposite order two
  // threads racing the first span could anchor the epoch to the later
  // thread's clock read and hand the earlier one a negative timestamp.
  const int64_t epoch = TraceEpoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch;
}

// Current resident set size of the process in KB: the second field of
// /proc/self/statm (in pages), read with one pread on a descriptor opened
// once. 0 where the file cannot be read. (The peak from getrusage would
// stop moving once the process had warmed up.)
int64_t CurrentRssKb() {
  static const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  static const int64_t page_kb = ::sysconf(_SC_PAGESIZE) / 1024;
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t len = ::pread(fd, buf, sizeof(buf) - 1, 0);
  if (len <= 0) return 0;
  buf[len] = '\0';
  // "size resident shared text lib data dt": skip the first field.
  const char* p = buf;
  while (*p != '\0' && *p != ' ') ++p;
  int64_t pages = 0;
  for (++p; *p >= '0' && *p <= '9'; ++p) pages = pages * 10 + (*p - '0');
  return pages * page_kb;
}

// Minor page faults of the whole process so far.
int64_t ProcessMinorFaults() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<int64_t>(ru.ru_minflt);
}

// Completed spans of one thread. `mu` is uncontended except during an
// export, so appends stay cheap and TSan-clean.
struct ThreadBuffer {
  std::mutex mu;
  int tid = 0;
  std::vector<SpanEvent> events;
};

struct Collector {
  static Collector& Instance() {
    static Collector* c = new Collector();  // Leaked; threads may outlive exit.
    return *c;
  }

  ThreadBuffer* ThisThread() {
    thread_local ThreadBuffer* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<ThreadBuffer>();
      buf = owned.get();
      std::lock_guard<std::mutex> lock(mu);
      buf->tid = static_cast<int>(buffers.size());
      buffers.push_back(std::move(owned));
    }
    return buf;
  }

  std::mutex mu;  // Guards `buffers` (vector itself) and `last_root`.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  QueryStats last_root;
  std::atomic<int64_t> dropped{0};
};

thread_local int tls_depth = 0;

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          *out += hex;
        } else {
          *out += c;
        }
    }
  }
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

}  // namespace

Span::Span(const char* name)
    : active_(metrics::Enabled()),
      name_(name),
      start_ns_(0),
      start_rss_kb_(0),
      start_minflt_(0),
      depth_(0) {
  if (!active_) return;
  start_ns_ = NowNanos();
  start_rss_kb_ = CurrentRssKb();
  start_minflt_ = ProcessMinorFaults();
  depth_ = tls_depth++;
}

Span::~Span() {
  if (!active_) return;
  --tls_depth;
  const int64_t end_ns = NowNanos();

  SpanEvent ev;
  ev.name = name_;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns - start_ns_;
  ev.rss_delta_kb = CurrentRssKb() - start_rss_kb_;
  ev.minflt = ProcessMinorFaults() - start_minflt_;
  ev.depth = depth_;
  ev.int_attrs = std::move(int_attrs_);
  ev.float_attrs = std::move(float_attrs_);

  Collector& c = Collector::Instance();
  if (depth_ == 0) {
    QueryStats qs;
    qs.valid = true;
    qs.name = ev.name;
    qs.wall_ms = static_cast<double>(ev.dur_ns) / 1e6;
    qs.rss_delta_kb = ev.rss_delta_kb;
    qs.minflt = ev.minflt;
    qs.attrs = ev.int_attrs;
    std::lock_guard<std::mutex> lock(c.mu);
    c.last_root = std::move(qs);
  }

  ThreadBuffer* buf = c.ThisThread();
  ev.tid = buf->tid;
  std::lock_guard<std::mutex> lock(buf->mu);
  if (static_cast<int64_t>(buf->events.size()) >= kMaxSpansPerThread) {
    c.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back(std::move(ev));
}

void Span::AddAttr(const char* key, int64_t value) {
  if (!active_) return;
  int_attrs_.emplace_back(key, value);
}

void Span::AddAttr(const char* key, double value) {
  if (!active_) return;
  float_attrs_.emplace_back(key, value);
}

std::vector<SpanEvent> Spans() {
  Collector& c = Collector::Instance();
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lock(c.mu);
  for (const auto& buf : c.buffers) {
    std::lock_guard<std::mutex> block(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

std::vector<FlatStat> FlatStats() {
  std::map<std::string, FlatStat> agg;
  for (const SpanEvent& ev : Spans()) {
    FlatStat& s = agg[ev.name];
    s.name = ev.name;
    ++s.count;
    s.total_ns += ev.dur_ns;
    s.max_ns = std::max(s.max_ns, ev.dur_ns);
    s.minflt += ev.minflt;
  }
  std::vector<FlatStat> out;
  out.reserve(agg.size());
  for (auto& [name, s] : agg) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const FlatStat& a, const FlatStat& b) {
    return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                    : a.name < b.name;
  });
  return out;
}

std::string ChromeTraceJson() {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : Spans()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(&out, ev.name);
    out += "\",\"cat\":\"ringo\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += ",\"ts\":";
    out += FormatDouble(static_cast<double>(ev.start_ns) / 1e3);
    out += ",\"dur\":";
    out += FormatDouble(static_cast<double>(ev.dur_ns) / 1e3);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(ev.depth);
    out += ",\"rss_delta_kb\":";
    out += std::to_string(ev.rss_delta_kb);
    out += ",\"minflt\":";
    out += std::to_string(ev.minflt);
    for (const auto& [key, value] : ev.int_attrs) {
      out += ",\"";
      AppendJsonEscaped(&out, key);
      out += "\":";
      out += std::to_string(value);
    }
    for (const auto& [key, value] : ev.float_attrs) {
      out += ",\"";
      AppendJsonEscaped(&out, key);
      out += "\":";
      out += FormatDouble(value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

Status ExportChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << ChromeTraceJson();
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

std::string RenderFlatStats() {
  std::ostringstream os;
  os << std::left << std::setw(40) << "span" << std::right << std::setw(10)
     << "count" << std::setw(14) << "total_ms" << std::setw(14) << "max_ms"
     << std::setw(12) << "minflt" << '\n';
  for (const FlatStat& s : FlatStats()) {
    os << std::left << std::setw(40) << s.name << std::right << std::setw(10)
       << s.count << std::setw(14) << std::fixed << std::setprecision(3)
       << static_cast<double>(s.total_ns) / 1e6 << std::setw(14)
       << static_cast<double>(s.max_ns) / 1e6 << std::setw(12) << s.minflt
       << '\n';
    os.unsetf(std::ios::fixed);
  }
  return os.str();
}

QueryStats LastRootSpan() {
  Collector& c = Collector::Instance();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.last_root;
}

int64_t DroppedSpans() {
  return Collector::Instance().dropped.load(std::memory_order_relaxed);
}

int CurrentDepth() { return tls_depth; }

void Clear() {
  Collector& c = Collector::Instance();
  std::lock_guard<std::mutex> lock(c.mu);
  for (const auto& buf : c.buffers) {
    std::lock_guard<std::mutex> block(buf->mu);
    buf->events.clear();
  }
  c.last_root = QueryStats{};
  c.dropped.store(0, std::memory_order_relaxed);
}

}  // namespace trace
}  // namespace ringo
