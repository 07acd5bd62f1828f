#include "table/column.h"

#include <gtest/gtest.h>

#include "util/parallel.h"

namespace ringo {
namespace {

TEST(ColumnTest, IntAppendGet) {
  Column c(ColumnType::kInt);
  c.AppendInt(1);
  c.AppendInt(-2);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetInt(0), 1);
  EXPECT_EQ(c.GetInt(1), -2);
  c.SetInt(0, 100);
  EXPECT_EQ(c.GetInt(0), 100);
}

TEST(ColumnTest, FloatAndStringTypes) {
  Column f(ColumnType::kFloat);
  f.AppendFloat(2.5);
  EXPECT_DOUBLE_EQ(f.GetFloat(0), 2.5);

  Column s(ColumnType::kString);
  s.AppendStr(7);
  EXPECT_EQ(s.GetStr(0), 7);
  EXPECT_EQ(s.type(), ColumnType::kString);
}

TEST(ColumnTest, GatherPicksRows) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 10; ++i) c.AppendInt(i * 10);
  const Column g = c.Gather({9, 0, 5, 5});
  ASSERT_EQ(g.size(), 4);
  EXPECT_EQ(g.GetInt(0), 90);
  EXPECT_EQ(g.GetInt(1), 0);
  EXPECT_EQ(g.GetInt(2), 50);
  EXPECT_EQ(g.GetInt(3), 50);
}

TEST(ColumnTest, CompactKeepInPlace) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 10; ++i) c.AppendInt(i);
  c.CompactKeep({1, 3, 8});
  ASSERT_EQ(c.size(), 3);
  EXPECT_EQ(c.GetInt(0), 1);
  EXPECT_EQ(c.GetInt(1), 3);
  EXPECT_EQ(c.GetInt(2), 8);
}

TEST(ColumnTest, CompactKeepEmpty) {
  Column c(ColumnType::kFloat);
  c.AppendFloat(1.0);
  c.CompactKeep({});
  EXPECT_EQ(c.size(), 0);
}

TEST(ColumnTest, AppendColumnConcatenates) {
  Column a(ColumnType::kInt), b(ColumnType::kInt);
  a.AppendInt(1);
  b.AppendInt(2);
  b.AppendInt(3);
  a.AppendColumn(b);
  ASSERT_EQ(a.size(), 3);
  EXPECT_EQ(a.GetInt(2), 3);
}

TEST(ColumnTest, ResizeAndMemory) {
  Column c(ColumnType::kInt);
  c.Resize(100);
  EXPECT_EQ(c.size(), 100);
  EXPECT_EQ(c.GetInt(99), 0);
  EXPECT_GE(c.MemoryUsageBytes(), 100 * static_cast<int64_t>(sizeof(int64_t)));
}

// Resize keeps existing cells and zero-fills the growth, above the
// parallel cutoff and at several thread counts; shrinking keeps the
// prefix. ResizeForOverwrite keeps existing cells too.
TEST(ColumnTest, ResizeZeroFillsGrowthAtEveryThreadCount) {
  const int64_t big = internal::kParallelRangeCutoff * 3 + 7;
  for (int threads = 1; threads <= 4; ++threads) {
    const int saved = NumThreads();
    SetNumThreads(threads);
    Column i(ColumnType::kInt), f(ColumnType::kFloat), s(ColumnType::kString);
    i.ResizeForOverwrite(5);
    f.ResizeForOverwrite(5);
    s.ResizeForOverwrite(5);
    for (int64_t r = 0; r < 5; ++r) {
      i.SetInt(r, r + 1);
      f.SetFloat(r, 0.5);
      s.SetStr(r, 9);
    }
    i.Resize(big);
    f.Resize(big);
    s.Resize(big);
    int64_t bad = -1;
    for (int64_t r = 0; r < big && bad < 0; ++r) {
      const bool head = r < 5;
      if (i.GetInt(r) != (head ? r + 1 : 0) ||
          f.GetFloat(r) != (head ? 0.5 : 0.0) ||
          s.GetStr(r) != (head ? 9 : 0)) {
        bad = r;
      }
    }
    EXPECT_EQ(bad, -1) << threads << " threads";
    i.Resize(3);
    i.ResizeForOverwrite(4);
    i.SetInt(3, 40);
    EXPECT_EQ(i.GetInt(2), 3);
    EXPECT_EQ(i.GetInt(3), 40);
    SetNumThreads(saved);
  }
}

}  // namespace
}  // namespace ringo
