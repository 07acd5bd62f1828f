// Stress: the chunk-parallel TSV loader against itself across thread
// counts, and against the line-by-line reference parser in test_support.h.
//
//   * Determinism. One 60K-row file with comment, blank and CRLF lines and
//     two string columns holding thousands of distinct values loads to the
//     same cells and the same pool, id for id, at 1, 2, 3 and 4 threads —
//     into fresh pools and into one pre-filled pool. In a fresh pool the
//     ids follow row-major first occurrence. Every loaded table also
//     round-trips through .rtb at 1 and 4 threads, so the block-parallel
//     segment verification runs under TSan too.
//   * Differential. Seeded random and mutated texts (CRLF, blank and '#'
//     lines, a commented header, header-only and empty files, no final
//     newline, extra and missing tabs, empty fields, bad numbers, lines
//     longer than a chunk, fewer lines than chunks) load at 1 and 4
//     threads to exactly what the reference says: the same Status code and
//     message, or the same rows and cells.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stress/stress_support.h"
#include "table/table_io.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

class TsvIngestStress : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempFile(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << content;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

const Schema& PostsSchema() {
  static const Schema s{{"id", ColumnType::kInt},
                        {"user", ColumnType::kString},
                        {"score", ColumnType::kFloat},
                        {"tag", ColumnType::kString}};
  return s;
}

// 60K data rows behind a header; about 1 line in 50 is a comment or a
// blank line, and about 1 in 7 ends in CRLF. `user` has ~6K distinct
// values, `tag` ~2.5K.
std::string PostsText(uint64_t seed) {
  Rng rng(seed);
  std::string text = "# id\tuser\tscore\ttag\n";
  for (int64_t i = 0; i < 60000; ++i) {
    const int64_t kind = rng.UniformInt(0, 99);
    if (kind == 0) text += "# checkpoint " + std::to_string(i) + "\n";
    if (kind == 1) text += (i % 2 == 0) ? "\n" : "\r\n";
    text += std::to_string(rng.UniformInt(-1000000, 1000000)) + "\tu" +
            std::to_string(rng.UniformInt(0, 5999)) + "\t" +
            std::to_string(rng.UniformInt(0, 99999)) + ".25\ttag-" +
            std::to_string(rng.UniformInt(0, 2499) * 7919 % 100003);
    text += (kind % 7 == 3) ? "\r\n" : "\n";
  }
  return text;
}

std::vector<std::string> PoolContents(const StringPool& pool) {
  std::vector<std::string> out;
  for (StringPool::Id id = 0; id < pool.size(); ++id) {
    out.emplace_back(pool.Get(id));
  }
  return out;
}

// Cells as raw words: ints as-is, floats as bit patterns, strings as ids.
std::vector<std::vector<int64_t>> Cells(const Table& t) {
  std::vector<std::vector<int64_t>> cols(t.num_columns());
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      const Column& col = t.column(c);
      switch (col.type()) {
        case ColumnType::kInt: cols[c].push_back(col.GetInt(r)); break;
        case ColumnType::kFloat:
          cols[c].push_back(std::bit_cast<int64_t>(col.GetFloat(r)));
          break;
        case ColumnType::kString: cols[c].push_back(col.GetStr(r)); break;
      }
    }
  }
  return cols;
}

// The pool a row-major walk of the string cells would build, after the
// strings already in `prefill`.
std::vector<std::string> FirstOccurrenceOrder(
    const Table& t, const std::vector<std::string>& prefill) {
  std::vector<std::string> order = prefill;
  std::map<std::string, bool> seen;
  for (const std::string& s : prefill) seen[s] = true;
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (t.column(c).type() != ColumnType::kString) continue;
      std::string s(t.pool()->Get(t.column(c).GetStr(r)));
      if (!seen[s]) {
        seen[s] = true;
        order.push_back(std::move(s));
      }
    }
  }
  return order;
}

std::shared_ptr<StringPool> PrefilledPool() {
  auto pool = std::make_shared<StringPool>();
  // Some strings the file holds, in an order it never uses, and some it
  // never holds.
  for (const char* s : {"tag-7919", "absent-1", "u17", "u5999", "absent-2"}) {
    pool->GetOrAdd(s);
  }
  return pool;
}

TEST_F(TsvIngestStress, PoolIdsAndCellsIdenticalAtEveryThreadCount) {
  const std::string path = TempFile("ingest_posts.tsv", PostsText(0x75F));
  const std::shared_ptr<StringPool> shared = PrefilledPool();
  const std::vector<std::string> prefill = PoolContents(*PrefilledPool());

  std::vector<std::vector<int64_t>> fresh_cells;
  std::vector<std::string> fresh_pool;
  std::vector<std::vector<int64_t>> shared_cells;
  std::vector<std::string> shared_pool;
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::ScopedNumThreads scoped(threads);

    auto fresh = LoadTableTSV(PostsSchema(), path, nullptr, true);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_EQ((*fresh)->NumRows(), 60000);
    auto into_shared = LoadTableTSV(PostsSchema(), path, shared, true);
    ASSERT_TRUE(into_shared.ok()) << into_shared.status();

    if (threads == 1) {
      fresh_cells = Cells(**fresh);
      fresh_pool = PoolContents(*(*fresh)->pool());
      shared_cells = Cells(**into_shared);
      shared_pool = PoolContents(*shared);
      EXPECT_GT(fresh_pool.size(), 8000u);
      EXPECT_EQ(fresh_pool, FirstOccurrenceOrder(**fresh, {}));
      EXPECT_EQ(shared_pool, FirstOccurrenceOrder(**into_shared, prefill));
    } else {
      EXPECT_EQ(PoolContents(*(*fresh)->pool()), fresh_pool);
      EXPECT_EQ(Cells(**fresh), fresh_cells);
      EXPECT_EQ(PoolContents(*shared), shared_pool);
      EXPECT_EQ(Cells(**into_shared), shared_cells);
    }

    // The same pre-filled start, loaded at this thread count alone.
    auto into_copy = LoadTableTSV(PostsSchema(), path, PrefilledPool(), true);
    ASSERT_TRUE(into_copy.ok()) << into_copy.status();
    EXPECT_EQ(PoolContents(*(*into_copy)->pool()), shared_pool);
    EXPECT_EQ(Cells(**into_copy), shared_cells);

    // .rtb round trip, verified block-parallel at 1 and 4 threads.
    const std::string rtb = ::testing::TempDir() + "/ingest_posts_" +
                            std::to_string(threads) + ".rtb";
    files_.push_back(rtb);
    ASSERT_TRUE(SaveTableBin(**fresh, rtb).ok());
    for (const int load_threads : {1, 4}) {
      testing::ScopedNumThreads inner(load_threads);
      auto back = LoadTableBin(rtb);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_TRUE((*fresh)->ContentEquals(**back))
          << "load_threads=" << load_threads;
    }
  }
}

// ---------------------------------------------------------- differential

const std::vector<Schema>& DiffSchemas() {
  static const std::vector<Schema> s = {
      Schema{{"id", ColumnType::kInt},
             {"name", ColumnType::kString},
             {"w", ColumnType::kFloat},
             {"tag", ColumnType::kString}},
      Schema{{"s", ColumnType::kString}},
      Schema{{"n", ColumnType::kInt}},
      Schema{{"x", ColumnType::kFloat}, {"y", ColumnType::kInt}},
  };
  return s;
}

std::string RandomString(Rng& rng) {
  static const char kAlphabet[] = "abcxyz019 #-_.";
  const int64_t shape = rng.UniformInt(0, 19);
  if (shape == 0) return "";
  // Now and then a field longer than a whole chunk of a small file.
  const int64_t len =
      shape == 1 ? rng.UniformInt(100, 600) : rng.UniformInt(1, 6);
  std::string s;
  for (int64_t i = 0; i < len; ++i) {
    s += kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
  }
  return s;
}

std::string RandomNumber(Rng& rng, ColumnType type) {
  static const char* kBad[] = {"",    "12x", " 5", "+3",    "0x10",
                               "nan?", "1e999", "--1", "9223372036854775808"};
  if (rng.UniformInt(0, 39) == 0) {
    return kBad[rng.UniformInt(0, sizeof(kBad) / sizeof(kBad[0]) - 1)];
  }
  if (type == ColumnType::kInt) {
    return std::to_string(rng.UniformInt(-100000, 100000));
  }
  static const char* kSpecial[] = {"nan", "-inf", "inf", "-0", "1e-310"};
  if (rng.UniformInt(0, 9) == 0) {
    return kSpecial[rng.UniformInt(0, 4)];
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", rng.UniformReal(-1e6, 1e6));
  return buf;
}

// One random, possibly malformed, TSV text for `schema`.
std::string RandomTsvText(Rng& rng, const Schema& schema, bool has_header) {
  const int64_t shape = rng.UniformInt(0, 19);
  if (shape == 0) return "";                          // Empty file.
  if (shape == 1) return has_header ? "a\tb\n" : "\n\r\n";  // Header only.
  std::string text;
  if (has_header) {
    if (rng.Bernoulli(0.3)) text += "\n";  // Blank lines before the header.
    text += rng.Bernoulli(0.5) ? "# col\tcol\n" : "h1\th2\n";
  }
  // Mostly fewer lines than chunks at 4 threads; now and then enough rows
  // for several per chunk.
  const int64_t lines =
      shape == 2 ? rng.UniformInt(200, 400) : rng.UniformInt(1, 12);
  // Malformed texts are the exception, so most loads reach the cells.
  const bool clean = rng.Bernoulli(0.5);
  for (int64_t i = 0; i < lines; ++i) {
    const int64_t kind = rng.UniformInt(0, 29);
    if (kind == 0) {
      text += "# comment\n";
      continue;
    }
    if (kind == 1) {
      text += rng.Bernoulli(0.5) ? "\n" : "\r\n";
      continue;
    }
    std::vector<std::string> fields;
    for (int c = 0; c < schema.num_columns(); ++c) {
      const ColumnType type = schema.column(c).type;
      std::string f = type == ColumnType::kString ? RandomString(rng)
                                                  : RandomNumber(rng, type);
      if (clean && type != ColumnType::kString) {
        f = std::to_string(rng.UniformInt(-9, 9));
      }
      fields.push_back(std::move(f));
    }
    if (!clean && kind == 2) fields.push_back("extra");
    if (!clean && kind == 3 && !fields.empty()) fields.pop_back();
    std::string line;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (c > 0) line += '\t';
      line += fields[c];
    }
    text += line;
    text += kind == 4 ? "\r\n" : "\n";
  }
  if (rng.Bernoulli(0.25) && !text.empty() && text.back() == '\n') {
    text.pop_back();  // No final newline.
  }
  return text;
}

void ExpectMatchesReference(const Result<TablePtr>& got,
                            const testing::ReferenceTsv& want,
                            const Schema& schema) {
  if (want.code != StatusCode::kOk) {
    ASSERT_FALSE(got.ok()) << "expected: " << want.message;
    EXPECT_EQ(got.status().code(), want.code);
    EXPECT_EQ(got.status().message(), want.message);
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status();
  const Table& t = **got;
  ASSERT_EQ(t.NumRows(), static_cast<int64_t>(want.rows.size()));
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      const Value& v = want.rows[r][c];
      switch (schema.column(c).type) {
        case ColumnType::kInt:
          ASSERT_EQ(t.column(c).GetInt(r), std::get<int64_t>(v));
          break;
        case ColumnType::kFloat:
          ASSERT_EQ(std::bit_cast<uint64_t>(t.column(c).GetFloat(r)),
                    std::bit_cast<uint64_t>(std::get<double>(v)))
              << "row " << r << " column " << c;
          break;
        case ColumnType::kString:
          ASSERT_EQ(t.pool()->Get(t.column(c).GetStr(r)),
                    std::get<std::string>(v));
          break;
      }
    }
  }
}

TEST_F(TsvIngestStress, MatchesLineByLineReference) {
  constexpr int kIterations = 400;
  Rng rng(0xD1FF);
  const std::string path = TempFile("ingest_diff.tsv", "");
  int errors = 0;
  for (int it = 0; it < kIterations; ++it) {
    const Schema& schema =
        DiffSchemas()[rng.UniformInt(0, DiffSchemas().size() - 1)];
    const bool has_header = rng.Bernoulli(0.4);
    const std::string text = RandomTsvText(rng, schema, has_header);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    const testing::ReferenceTsv want =
        testing::ReferenceParseTsv(schema, text, has_header);
    errors += want.code != StatusCode::kOk;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("iteration " + std::to_string(it) + ", threads=" +
                   std::to_string(threads) + ", text:\n" + text);
      testing::ScopedNumThreads scoped(threads);
      ExpectMatchesReference(LoadTableTSV(schema, path, nullptr, has_header),
                             want, schema);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(errors, kIterations / 10);
  EXPECT_LT(errors, kIterations * 9 / 10);
}

}  // namespace
}  // namespace ringo
