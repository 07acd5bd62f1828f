#include "util/metrics.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {
namespace {

// The registry is process-global; each test starts from a clean slate and
// restores the enabled flag so ordering does not matter.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::SetEnabled(true);
    metrics::ResetForTest();
    trace::Clear();
  }
};

TEST_F(MetricsTest, CounterAddsAccumulate) {
  RINGO_COUNTER_ADD("test/counter_a", 1);
  RINGO_COUNTER_ADD("test/counter_a", 41);
  EXPECT_EQ(metrics::CounterValue("test/counter_a"), 42);
  EXPECT_EQ(metrics::CounterValue("test/never_touched"), 0);
}

TEST_F(MetricsTest, DisabledCounterAddIsDropped) {
  metrics::SetEnabled(false);
  RINGO_COUNTER_ADD("test/disabled", 7);
  metrics::SetEnabled(true);
  EXPECT_EQ(metrics::CounterValue("test/disabled"), 0);
}

TEST_F(MetricsTest, GaugeIsLastWriterWins) {
  metrics::GaugeSet("test/gauge", 1.5);
  metrics::GaugeSet("test/gauge", 2.5);
  EXPECT_DOUBLE_EQ(metrics::GaugeValue("test/gauge"), 2.5);
  EXPECT_DOUBLE_EQ(metrics::GaugeValue("test/no_gauge"), 0.0);
}

TEST_F(MetricsTest, TimerRecordsStats) {
  const uint32_t id = metrics::InternTimer("test/timer");
  metrics::TimerRecord(id, 1000);
  metrics::TimerRecord(id, 3000);
  const metrics::TimerStats s = metrics::TimerValue("test/timer");
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.total_ns, 4000);
  EXPECT_EQ(s.min_ns, 1000);
  EXPECT_EQ(s.max_ns, 3000);
  int64_t bucketed = 0;
  for (int64_t b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, 2);
}

TEST_F(MetricsTest, ScopedTimerRecordsOnDestruction) {
  const uint32_t id = metrics::InternTimer("test/scoped");
  { metrics::ScopedTimer t(id); }
  const metrics::TimerStats s = metrics::TimerValue("test/scoped");
  EXPECT_EQ(s.count, 1);
  EXPECT_GE(s.max_ns, 0);
}

TEST_F(MetricsTest, SnapshotIsNameSortedAndComplete) {
  RINGO_COUNTER_ADD("test/b", 2);
  RINGO_COUNTER_ADD("test/a", 1);
  metrics::GaugeSet("test/g", 9.0);
  const metrics::Snapshot snap = metrics::TakeSnapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first);
  }
  const std::string table = metrics::RenderStatsTable();
  EXPECT_NE(table.find("test/a"), std::string::npos);
  EXPECT_NE(table.find("test/g"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesButKeepsIds) {
  const uint32_t id = metrics::InternCounter("test/reset");
  metrics::CounterAdd(id, 5);
  metrics::ResetForTest();
  EXPECT_EQ(metrics::CounterValue("test/reset"), 0);
  metrics::CounterAdd(id, 3);  // Old id stays valid after reset.
  EXPECT_EQ(metrics::CounterValue("test/reset"), 3);
}

// --------------------------------------------------------------- trace spans

TEST_F(MetricsTest, SpansNestAndRecordDepth) {
  EXPECT_EQ(trace::CurrentDepth(), 0);
  {
    trace::Span outer("test/outer");
    EXPECT_EQ(trace::CurrentDepth(), 1);
    {
      trace::Span inner("test/inner");
      EXPECT_EQ(trace::CurrentDepth(), 2);
    }
    EXPECT_EQ(trace::CurrentDepth(), 1);
  }
  EXPECT_EQ(trace::CurrentDepth(), 0);

  const std::vector<trace::SpanEvent> spans = trace::Spans();
  ASSERT_EQ(spans.size(), 2u);
  int outer_depth = -1, inner_depth = -1;
  for (const trace::SpanEvent& e : spans) {
    if (e.name == "test/outer") outer_depth = e.depth;
    if (e.name == "test/inner") inner_depth = e.depth;
  }
  EXPECT_EQ(outer_depth, 0);
  EXPECT_EQ(inner_depth, 1);
}

TEST_F(MetricsTest, LastRootSpanCarriesAttrs) {
  {
    trace::Span span("test/root");
    span.AddAttr("rows", int64_t{123});
    trace::Span child("test/child");  // Must not clobber the root record.
  }
  const trace::QueryStats q = trace::LastRootSpan();
  ASSERT_TRUE(q.valid);
  EXPECT_EQ(q.name, "test/root");
  EXPECT_GE(q.wall_ms, 0.0);
  ASSERT_EQ(q.attrs.size(), 1u);
  EXPECT_EQ(q.attrs[0].first, "rows");
  EXPECT_EQ(q.attrs[0].second, 123);
}

// A span's memory delta follows the current RSS, not the process's peak:
// after a larger block has been touched and freed, a span that touches
// 64 MB still reports them. (With the peak, it reported 0.)
TEST_F(MetricsTest, SpanRssDeltaFollowsCurrentRss) {
  constexpr size_t kMb = size_t{1} << 20;
  volatile char sink = 0;
  {
    std::vector<char> big(128 * kMb, 1);
    sink = sink + big[64 * kMb];
  }
  std::vector<char> block;
  {
    trace::Span span("test/touch64");
    block.assign(64 * kMb, 2);
    sink = sink + block[32 * kMb];
  }
  const trace::QueryStats q = trace::LastRootSpan();
  ASSERT_TRUE(q.valid);
  EXPECT_EQ(q.name, "test/touch64");
  EXPECT_GE(q.rss_delta_kb, 32 * 1024);
}

// A span counts the minor page faults taken inside it: touching 64 MB of
// freshly mapped memory faults 16K pages of 4 KiB. The buffer is advised
// MADV_NOHUGEPAGE, so the count does not depend on the host's THP mode.
TEST_F(MetricsTest, SpanCountsMinorFaults) {
  constexpr size_t kBytes = size_t{64} << 20;
  constexpr size_t kPage = 4096;
  void* mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  ::madvise(mem, kBytes, MADV_NOHUGEPAGE);
  volatile char* bytes = static_cast<char*>(mem);
  {
    trace::Span span("test/fault64");
    for (size_t off = 0; off < kBytes; off += kPage) bytes[off] = 1;
  }
  ::munmap(mem, kBytes);
  const trace::QueryStats q = trace::LastRootSpan();
  ASSERT_TRUE(q.valid);
  EXPECT_EQ(q.name, "test/fault64");
  EXPECT_GE(q.minflt, 8 * 1024);
  const std::vector<trace::FlatStat> stats = trace::FlatStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].minflt, q.minflt);
  EXPECT_NE(trace::ChromeTraceJson().find("\"minflt\":" +
                                          std::to_string(q.minflt)),
            std::string::npos);
}

TEST_F(MetricsTest, FlatStatsAggregateByName) {
  for (int i = 0; i < 3; ++i) trace::Span span("test/repeat");
  const std::vector<trace::FlatStat> stats = trace::FlatStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "test/repeat");
  EXPECT_EQ(stats[0].count, 3);
  EXPECT_GE(stats[0].total_ns, stats[0].max_ns);
}

TEST_F(MetricsTest, ChromeTraceJsonSchema) {
  {
    trace::Span span("test/export");
    span.AddAttr("n", int64_t{7});
  }
  const std::string json = trace::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test/export\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":7"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST_F(MetricsTest, DisabledSpansAreFree) {
  metrics::SetEnabled(false);
  {
    trace::Span span("test/ghost");
    EXPECT_FALSE(span.active());
    span.AddAttr("n", int64_t{1});
    EXPECT_EQ(trace::CurrentDepth(), 0);
  }
  metrics::SetEnabled(true);
  EXPECT_TRUE(trace::Spans().empty());
  EXPECT_FALSE(trace::LastRootSpan().valid);
}

TEST_F(MetricsTest, ClearDiscardsSpans) {
  { trace::Span span("test/clearme"); }
  ASSERT_FALSE(trace::Spans().empty());
  trace::Clear();
  EXPECT_TRUE(trace::Spans().empty());
  EXPECT_FALSE(trace::LastRootSpan().valid);
}

TEST_F(MetricsTest, CountersFromParallelRegionsMerge) {
  // The canonical shard use: every OpenMP thread bumps the same counter;
  // the merged value must equal the loop count regardless of thread split.
  constexpr int64_t kN = 10000;
  ParallelFor(0, kN, [](int64_t) { RINGO_COUNTER_ADD("test/parallel", 1); });
  EXPECT_EQ(metrics::CounterValue("test/parallel"), kN);
}

}  // namespace
}  // namespace ringo
