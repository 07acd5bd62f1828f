// .rtb binary table format suite (DESIGN.md §14): bit-exact round trips
// (NaN payloads, signed zeros, interned strings, persistent row ids),
// zero-copy loading of encoded columns, extension dispatch, and the
// corruption matrix — truncated header, bad magic, wrong version, flipped
// segment bytes, short column segment — all of which must come back as
// Status::Corruption without crashing (the ASan/UBSan build runs this).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "table/column_encoding.h"
#include "table/table_io.h"
#include "util/checksum.h"
#include "util/parallel.h"

namespace ringo {
namespace {

class TableBinIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::vector<std::string> files_;
};

// Mixed-type table with every float special value and interned strings.
TablePtr MakeSpecialsTable() {
  TablePtr t = Table::Create(Schema{{"id", ColumnType::kInt},
                                    {"w", ColumnType::kFloat},
                                    {"tag", ColumnType::kString}});
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(uint64_t{0x7FF8000000000042}),  // qNaN payload
      std::bit_cast<double>(uint64_t{0x7FF0000000000001}),  // sNaN payload
      std::numeric_limits<double>::denorm_min(),
      -1234.5,
  };
  const char* tags[] = {"java", "", "c++", "java", "a\tb", "ünïcode", "x",
                        "java"};
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        t->AppendRow({int64_t{i} * 1000003 - 4, specials[i],
                      std::string(tags[i])})
            .ok());
  }
  return t;
}

void ExpectBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (int64_t r = 0; r < a.NumRows(); ++r) {
    EXPECT_EQ(a.RowId(r), b.RowId(r)) << "row " << r;
    for (int c = 0; c < a.num_columns(); ++c) {
      switch (a.schema().column(c).type) {
        case ColumnType::kInt:
          EXPECT_EQ(a.column(c).GetInt(r), b.column(c).GetInt(r))
              << "row " << r << " col " << c;
          break;
        case ColumnType::kFloat:
          // Bit equality, not ==: NaN payloads and -0.0 must survive.
          EXPECT_EQ(std::bit_cast<uint64_t>(a.column(c).GetFloat(r)),
                    std::bit_cast<uint64_t>(b.column(c).GetFloat(r)))
              << "row " << r << " col " << c;
          break;
        case ColumnType::kString:
          EXPECT_EQ(a.pool()->Get(a.column(c).GetStr(r)),
                    b.pool()->Get(b.column(c).GetStr(r)))
              << "row " << r << " col " << c;
          break;
      }
    }
  }
}

TEST_F(TableBinIoTest, RoundTripBitIdentical) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("specials.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  auto loaded = LoadTableBin(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(*t, **loaded);
}

TEST_F(TableBinIoTest, RoundTripPreservesRowIdsAndNextId) {
  TablePtr t = MakeSpecialsTable();
  // Punch holes so physical row != row id.
  ASSERT_TRUE(t->SelectInPlace("w", CmpOp::kGe, -2000.0).ok());
  ASSERT_GT(t->NumRows(), 0);
  ASSERT_LT(t->NumRows(), 8);
  const std::string path = TempPath("rowids.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  auto loaded = LoadTableBin(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->row_ids(), t->row_ids());
  // The id counter persists: fresh appends continue where the saved table
  // would have.
  ASSERT_TRUE((*loaded)->AppendRow({int64_t{1}, 1.0, std::string("z")}).ok());
  EXPECT_EQ((*loaded)->RowId((*loaded)->NumRows() - 1), 8);
}

TEST_F(TableBinIoTest, RoundTripEncodedColumnsZeroCopy) {
  TablePtr t = Table::Create(Schema{{"small", ColumnType::kInt},
                                    {"cat", ColumnType::kInt},
                                    {"ratio", ColumnType::kFloat},
                                    {"tag", ColumnType::kString}});
  for (int64_t i = 0; i < 4000; ++i) {
    t->AppendRow({100 + (i % 7),                       // FOR-friendly
                  (i % 3) * 1000000007,                // dict int
                  (i % 2) ? 0.25 : -0.0,               // dict float
                  std::string((i % 5) ? "hot" : "cold")})
        .ok();
  }
  ASSERT_GT(t->EncodeColumns(), 0);
  ASSERT_TRUE(t->column(0).encoded());
  const std::string path = TempPath("encoded.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  auto loaded = LoadTableBin(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Encoded columns come back encoded — the compact layout IS the loaded
  // in-memory layout — and decode to identical values.
  EXPECT_TRUE((*loaded)->column(0).encoded());
  EXPECT_TRUE((*loaded)->column(1).encoded());
  EXPECT_TRUE((*loaded)->column(3).encoded());
  ExpectBitIdentical(*t, **loaded);
  // Forcing full decode (raw-vector access) still matches.
  const Column::IntVec& ints = (*loaded)->column(0).ints();
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(ints[i], 100 + (i % 7));
}

TEST_F(TableBinIoTest, RoundTripEmptyTable) {
  TablePtr t = Table::Create(
      Schema{{"a", ColumnType::kInt}, {"s", ColumnType::kString}});
  const std::string path = TempPath("empty.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  auto loaded = LoadTableBin(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->NumRows(), 0);
  EXPECT_EQ((*loaded)->schema(), t->schema());
}

TEST_F(TableBinIoTest, LoadTableAutoDispatchesOnExtension) {
  TablePtr t = MakeSpecialsTable();
  const std::string bin = TempPath("auto.rtb");
  ASSERT_TRUE(SaveTableBin(*t, bin).ok());
  auto from_bin = LoadTableAuto(t->schema(), bin);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status();
  ExpectBitIdentical(*t, **from_bin);

  // The text arm needs a TSV-representable table (no embedded tabs —
  // only the binary format can round-trip those).
  const Schema s{{"id", ColumnType::kInt}, {"tag", ColumnType::kString}};
  TablePtr plain = Table::Create(s);
  ASSERT_TRUE(plain->AppendRow({int64_t{1}, std::string("java")}).ok());
  ASSERT_TRUE(plain->AppendRow({int64_t{2}, std::string("go")}).ok());
  const std::string tsv = TempPath("auto.tsv");
  ASSERT_TRUE(SaveTableTSV(*plain, tsv).ok());
  auto from_tsv = LoadTableAuto(s, tsv);
  ASSERT_TRUE(from_tsv.ok()) << from_tsv.status();
  EXPECT_EQ((*from_tsv)->NumRows(), 2);
}

TEST_F(TableBinIoTest, LoadTableAutoRejectsSchemaMismatch) {
  TablePtr t = MakeSpecialsTable();
  const std::string bin = TempPath("mismatch.rtb");
  ASSERT_TRUE(SaveTableBin(*t, bin).ok());
  const Schema wrong{{"id", ColumnType::kInt}};
  auto loaded = LoadTableAuto(wrong, bin);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

// ------------------------------------------------------- corruption matrix

TEST_F(TableBinIoTest, TruncatedHeaderIsCorruption) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("trunc_header.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  const std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, 17));
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST_F(TableBinIoTest, BadMagicIsCorruption) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("bad_magic.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST_F(TableBinIoTest, WrongVersionIsCorruption) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("bad_version.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  std::string bytes = ReadFile(path);
  bytes[4] = 99;  // Version is checked before the header CRC.
  WriteFile(path, bytes);
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(TableBinIoTest, FlippedSegmentByteIsChecksumMismatch) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("bitrot.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  std::string bytes = ReadFile(path);
  bytes[70] ^= 0x5A;  // Inside the first column's data segment.
  WriteFile(path, bytes);
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(TableBinIoTest, TruncatedTailIsCorruption) {
  TablePtr t = MakeSpecialsTable();
  const std::string path = TempPath("trunc_tail.rtb");
  ASSERT_TRUE(SaveTableBin(*t, path).ok());
  const std::string bytes = ReadFile(path);
  // Chop the directory (it sits at the end of the file).
  WriteFile(path, bytes.substr(0, bytes.size() - 13));
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

// Hand-built file whose directory is self-consistent (valid CRCs) but
// whose column segment claims more bytes than the file holds.
TEST_F(TableBinIoTest, ShortColumnSegmentIsCorruption) {
  std::string dir;
  auto put = [&dir](const void* p, size_t n) {
    dir.append(static_cast<const char*>(p), n);
  };
  auto put_u32 = [&](uint32_t v) { put(&v, 4); };
  auto put_u64 = [&](uint64_t v) { put(&v, 8); };
  auto put_i64 = [&](int64_t v) { put(&v, 8); };
  auto put_u8 = [&](uint8_t v) { put(&v, 1); };

  // One plain int column "a" whose data segment claims 8000 bytes.
  put_u32(1);
  dir.append("a");
  put_u8(0);  // type = int
  put_u8(0);  // enc = plain
  put_u8(0);  // bits
  put_u8(0);  // pad
  put_i64(0);  // for_base
  put_i64(0);  // dict_count
  put_u64(64), put_u64(8000), put_u32(0);  // data: way past EOF
  put_u64(0), put_u64(0), put_u32(0);      // dict: empty
  put_u64(0), put_u64(0), put_u32(0);      // row ids (never reached)

  std::string file;
  file.append("RTB1");
  auto fput_u32 = [&file](uint32_t v) {
    file.append(reinterpret_cast<const char*>(&v), 4);
  };
  auto fput_i64 = [&file](int64_t v) {
    file.append(reinterpret_cast<const char*>(&v), 8);
  };
  auto fput_u64 = [&file](uint64_t v) {
    file.append(reinterpret_cast<const char*>(&v), 8);
  };
  fput_u32(1);    // version
  fput_u32(1);    // ncols
  fput_u32(0);    // flags
  fput_i64(10);   // nrows
  fput_i64(10);   // next_row_id
  fput_u64(104);  // dir_offset: header + 40 bytes of "segment" space
  fput_u64(dir.size());
  fput_u32(Crc32(dir.data(), dir.size()));
  fput_u32(Crc32(file.data(), 52));  // header crc over [0, 52)
  file.resize(64, '\0');
  file.resize(104, '\0');  // 40 bytes of space the segment claims to fill
  file.append(dir);

  const std::string path = TempPath("short_segment.rtb");
  WriteFile(path, file);
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("short"), std::string::npos);
}

// Hand-built file holding one dictionary column (3 entries, 2-bit codes)
// whose only bad code is in the last row, past the first blocks of the
// parallel code-range scan. Every checksum is valid, so only that scan can
// reject it; with the last code in range the same file loads.
TEST_F(TableBinIoTest, CodeOutOfDictionaryRangeInLastRowIsCorruption) {
  constexpr int64_t kRows = 40000;
  struct Seg {
    uint64_t offset, bytes;
    uint32_t crc;
  };
  auto build = [](uint64_t last_code) {
    std::vector<uint64_t> codes(kRows, 1);
    codes.back() = last_code;
    const std::vector<uint64_t> words = PackCodes(codes, 2);
    const std::vector<int64_t> dict = {10, 20, 30};
    std::vector<int64_t> row_ids(kRows);
    for (int64_t i = 0; i < kRows; ++i) row_ids[i] = i;

    std::string file(64, '\0');  // Header, written last.
    auto segment = [&file](const void* p, size_t n) {
      const Seg s{file.size(), n, Crc32(p, n)};
      file.append(static_cast<const char*>(p), n);
      return s;
    };
    const Seg data = segment(words.data(), words.size() * 8);
    const Seg dict_seg = segment(dict.data(), dict.size() * 8);
    const Seg rows = segment(row_ids.data(), row_ids.size() * 8);

    std::string dir;
    auto put = [&dir](auto v) {
      dir.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto put_seg = [&put](const Seg& sg) {
      put(sg.offset);
      put(sg.bytes);
      put(sg.crc);
    };
    put(uint32_t{1});
    dir.append("a");
    put(static_cast<uint8_t>(ColumnType::kInt));
    put(static_cast<uint8_t>(ColumnEncoding::kDictInt));
    put(uint8_t{2});   // bits
    put(uint8_t{0});   // pad
    put(int64_t{0});   // for_base
    put(int64_t{3});   // dict_count
    put_seg(data);
    put_seg(dict_seg);
    put_seg(rows);
    const uint64_t dir_offset = file.size();
    file.append(dir);

    std::string h = "RTB1";
    auto hput = [&h](auto v) {
      h.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    hput(uint32_t{1});  // version
    hput(uint32_t{1});  // ncols
    hput(uint32_t{0});  // flags
    hput(kRows);        // nrows
    hput(kRows);        // next_row_id
    hput(dir_offset);
    hput(static_cast<uint64_t>(dir.size()));
    hput(Crc32(dir.data(), dir.size()));
    hput(Crc32(h.data(), 52));
    file.replace(0, h.size(), h);
    return file;
  };

  const std::string path = TempPath("code_range.rtb");
  const int saved = NumThreads();
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    WriteFile(path, build(2));
    auto good = LoadTableBin(path);
    ASSERT_TRUE(good.ok()) << good.status();
    EXPECT_EQ((*good)->column(0).GetInt(kRows - 1), 30);

    WriteFile(path, build(3));
    auto bad = LoadTableBin(path);
    ASSERT_FALSE(bad.ok()) << "threads=" << threads;
    EXPECT_TRUE(bad.status().IsCorruption()) << bad.status();
    EXPECT_NE(bad.status().message().find("out of dictionary range"),
              std::string::npos)
        << bad.status();
  }
  SetNumThreads(saved);
}

TEST_F(TableBinIoTest, NotAnRtbFileAtAll) {
  const std::string path = TempPath("noise.rtb");
  WriteFile(path, "id\tw\ttag\n1\t2.5\tjava\nmore lines of text padding....."
                  "..............................");
  auto loaded = LoadTableBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST_F(TableBinIoTest, MissingFileIsIOError) {
  auto loaded = LoadTableBin(::testing::TempDir() + "/does_not_exist.rtb");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
}

// A directory is not an .rtb file: the mapping refuses it up front.
TEST_F(TableBinIoTest, DirectoryIsIOError) {
  const Status st = LoadTableBin(::testing::TempDir()).status();
  EXPECT_TRUE(st.IsIOError()) << st;
}

}  // namespace
}  // namespace ringo
