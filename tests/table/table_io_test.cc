#include "table/table_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempFile(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    files_.push_back(path);
    return path;
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

TEST_F(TableIoTest, LoadBasicTSV) {
  const std::string path = TempFile(
      "basic.tsv", "1\t2.5\tjava\n2\t-1.0\tcpp\n3\t0\trust\n");
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);
  EXPECT_EQ((*t)->column(0).GetInt(1), 2);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 2.5);
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(2, 2)), "rust");
}

TEST_F(TableIoTest, SkipsCommentsBlankLinesAndHeader) {
  // The header is the FIRST non-blank line (commented or not), so the
  // comment banner goes after it here; mid-file comments and blanks are
  // skipped as data.
  const std::string path = TempFile("comments.tsv",
                                    "id\n"
                                    "# a comment\n"
                                    "\n"
                                    "7\n"
                                    "# tail comment\n"
                                    "8\n");
  Schema schema{{"id", ColumnType::kInt}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 2);
  EXPECT_EQ((*t)->column(0).GetInt(0), 7);
  EXPECT_EQ((*t)->column(0).GetInt(1), 8);
}

// Regression: a '#'-commented header line ("# id<TAB>w", the common TSV
// export format) used to be skipped as a comment, after which the first
// DATA row was silently consumed as the header — every load lost a row.
// The first non-blank line is now the header whether commented or not.
TEST_F(TableIoTest, CommentedHeaderDoesNotEatFirstDataRow) {
  const std::string path = TempFile("commented_header.tsv",
                                    "# id\tw\n"
                                    "1\t0.5\n"
                                    "2\t1.5\n"
                                    "3\t2.5\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 3);  // Row "1" survived.
  EXPECT_EQ((*t)->column(0).GetInt(0), 1);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetFloat(0), 0.5);
}

// Regression companion: blank lines before the header do not count as the
// header — the first non-BLANK line does, and data still follows.
TEST_F(TableIoTest, BlankLinesBeforeHeaderAreSkipped) {
  const std::string path = TempFile("blank_then_header.tsv",
                                    "\n"
                                    "\n"
                                    "id\tw\n"
                                    "4\t0.25\n");
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  auto t = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 1);
  EXPECT_EQ((*t)->column(0).GetInt(0), 4);
}

TEST_F(TableIoTest, HandlesCRLF) {
  const std::string path = TempFile("crlf.tsv", "1\tx\r\n2\ty\r\n");
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(std::get<std::string>((*t)->GetValue(1, 1)), "y");
}

TEST_F(TableIoTest, RejectsWrongArity) {
  const std::string path = TempFile("bad.tsv", "1\t2\n3\n");
  Schema schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}};
  EXPECT_TRUE(LoadTableTSV(schema, path).status().IsInvalidArgument());
}

TEST_F(TableIoTest, RejectsBadNumbers) {
  const std::string path = TempFile("badnum.tsv", "xyz\n");
  Schema schema{{"a", ColumnType::kInt}};
  EXPECT_TRUE(LoadTableTSV(schema, path).status().IsInvalidArgument());
}

TEST_F(TableIoTest, MissingFileIsIOError) {
  Schema schema{{"a", ColumnType::kInt}};
  EXPECT_TRUE(
      LoadTableTSV(schema, "/nonexistent/nope.tsv").status().IsIOError());
}

TEST_F(TableIoTest, SaveLoadRoundTrip) {
  Schema schema{{"id", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{10}, 1.25, std::string("alpha")}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{-3}, -0.5, std::string("beta")}));
  const std::string path = TempPath("round.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());

  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, FloatRoundTripIsBitExact) {
  Schema schema{{"w", ColumnType::kFloat}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({0.1234567890123456789}));
  RINGO_CHECK_OK(t->AppendRow({1.0 / 3.0}));
  RINGO_CHECK_OK(t->AppendRow({-2.718281828459045}));
  const std::string path = TempPath("precise.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path).ok());
  auto back = LoadTableTSV(schema, path);
  ASSERT_TRUE(back.ok()) << back.status();
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    EXPECT_EQ(t->column(0).GetFloat(r), (*back)->column(0).GetFloat(r))
        << "row " << r << " must round-trip exactly";
  }
}

TEST_F(TableIoTest, SaveWithHeaderThenLoadWithHeader) {
  Schema schema{{"id", ColumnType::kInt}};
  TablePtr t = Table::Create(schema);
  RINGO_CHECK_OK(t->AppendRow({int64_t{5}}));
  const std::string path = TempPath("hdr.tsv");
  ASSERT_TRUE(SaveTableTSV(*t, path, /*write_header=*/true).ok());
  auto back = LoadTableTSV(schema, path, nullptr, /*has_header=*/true);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(t->ContentEquals(**back));
}

TEST_F(TableIoTest, LargeFileParsesCompletely) {
  std::string content;
  for (int i = 0; i < 20000; ++i) {
    content += std::to_string(i) + "\ttag" + std::to_string(i % 7) + "\n";
  }
  const std::string path = TempFile("large.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  auto t = LoadTableTSV(schema, path);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ((*t)->NumRows(), 20000);
  EXPECT_EQ((*t)->column(0).GetInt(19999), 19999);
  EXPECT_EQ((*t)->pool()->size(), 7);
}

// Errors name the physical file line: the header, a comment and a blank
// line before the short row all count, so it is line 5, not data row 2.
TEST_F(TableIoTest, ArityErrorNamesFileLine) {
  const std::string path = TempFile("arity_line.tsv",
                                    "a\tb\n"
                                    "# comment\n"
                                    "\n"
                                    "1\t2\n"
                                    "3\n");
  Schema schema{{"a", ColumnType::kInt}, {"b", ColumnType::kInt}};
  const Status st =
      LoadTableTSV(schema, path, nullptr, /*has_header=*/true).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 5: expected 2 fields, got 1");
}

TEST_F(TableIoTest, BadNumbersNameLineAndColumn) {
  Schema schema{{"id", ColumnType::kInt}, {"w", ColumnType::kFloat}};
  const std::string bad_int = TempFile("bad_int.tsv", "1\t2.5\nx1\t3\n");
  Status st = LoadTableTSV(schema, bad_int).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 2, column 'id': cannot parse integer: 'x1'");

  const std::string bad_float =
      TempFile("bad_float.tsv", "# w is a float\n1\tnan?\r\n");
  st = LoadTableTSV(schema, bad_float).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(st.message(), "line 2, column 'w': cannot parse float: 'nan?'");
}

// Two bad lines far apart land in different chunks; the first in file
// order is reported at every thread count, whichever chunk finishes first.
TEST_F(TableIoTest, FirstBadLineWinsAcrossChunks) {
  std::string content;
  for (int i = 1; i <= 20000; ++i) {
    if (i == 37) {
      content += "37\tbad\tx\n";  // Arity error on line 37.
    } else if (i == 19000) {
      content += "oops\tx\n";  // Bad int on line 19000.
    } else {
      content += std::to_string(i) + "\tx\n";
    }
  }
  const std::string path = TempFile("two_bad.tsv", content);
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  const int saved = NumThreads();
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const Status st = LoadTableTSV(schema, path).status();
    EXPECT_EQ(st.message(), "line 37: expected 2 fields, got 3")
        << "threads=" << threads;
  }
  SetNumThreads(saved);
}

// Nothing is interned until every chunk has parsed, so a failed load
// leaves a caller's pool as it was.
TEST_F(TableIoTest, FailedLoadLeavesPoolUntouched) {
  const std::string path =
      TempFile("fail_pool.tsv", "1\tfresh\n2\tnew\nbad\tx\n");
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  auto pool = std::make_shared<StringPool>();
  pool->GetOrAdd("kept");
  EXPECT_FALSE(LoadTableTSV(schema, path, pool).ok());
  EXPECT_EQ(pool->size(), 1);
}

// A directory opens but is no table file; it used to load as 0 rows.
TEST_F(TableIoTest, DirectoryIsIOError) {
  Schema schema{{"a", ColumnType::kInt}};
  const Status st = LoadTableTSV(schema, ::testing::TempDir()).status();
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST_F(TableIoTest, LoadRecordsSpanAndCounter) {
  const std::string path =
      TempFile("traced.tsv", "h\n1\ta\n2\tb\n# c\n3\ta\n");
  Schema schema{{"id", ColumnType::kInt}, {"s", ColumnType::kString}};
  const bool was_enabled = metrics::Enabled();
  metrics::SetEnabled(true);
  trace::Clear();
  const int64_t loads = metrics::CounterValue("table_io/load_tsv");
  ASSERT_TRUE(LoadTableTSV(schema, path, nullptr, /*has_header=*/true).ok());
  EXPECT_EQ(metrics::CounterValue("table_io/load_tsv") - loads, 1);
  const trace::QueryStats q = trace::LastRootSpan();
  metrics::SetEnabled(was_enabled);
  ASSERT_TRUE(q.valid);
  EXPECT_EQ(q.name, "Table/LoadTableTSV");
  int64_t rows = -1;
  for (const auto& [key, value] : q.attrs) {
    if (key == "rows") rows = value;
  }
  EXPECT_EQ(rows, 3);
}

}  // namespace
}  // namespace ringo
