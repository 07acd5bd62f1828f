// Unit tests for the encoded column payloads (DESIGN.md §14): bit
// packing/unpacking at every width, the stats-driven encoder choices
// (FOR vs dict vs stay-plain), overflow and degenerate inputs, and the
// Column-level transparent encode/decode transitions.
#include "table/column_encoding.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "table/column.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(BitPackTest, RoundTripAllWidths) {
  Rng rng(0xB175);
  for (int bits = 1; bits <= 63; ++bits) {
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    std::vector<uint64_t> codes(257);  // Odd count: straddles everywhere.
    for (uint64_t& c : codes) c = rng.Next() & mask;
    codes[0] = mask;  // Extremes included.
    codes[1] = 0;
    const std::vector<uint64_t> words = PackCodes(codes, bits);
    ASSERT_EQ(words.size(),
              (codes.size() * static_cast<size_t>(bits) + 63) / 64);
    for (size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(UnpackBits(words.data(), static_cast<int64_t>(i), bits),
                codes[i])
          << "width " << bits << " index " << i;
    }
  }
}

// The word-at-a-time walk yields exactly UnpackBits' codes over every
// range, at every width: ranges that start and end mid-word, on word
// boundaries and at the stream's last code (which must not read past the
// last word).
TEST(BitPackTest, ForEachCodeMatchesUnpackBits) {
  Rng rng(0xF0EC);
  for (int bits = 1; bits <= 63; ++bits) {
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    std::vector<uint64_t> codes(193);
    for (uint64_t& c : codes) c = rng.Next() & mask;
    const std::vector<uint64_t> words = PackCodes(codes, bits);
    const int64_t n = static_cast<int64_t>(codes.size());
    for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
             {0, n}, {1, n}, {n - 1, n}, {0, 1}, {5, 70}, {64, 128},
             {63, 65}, {7, 7}}) {
      int64_t next = lo;
      ForEachCode(words.data(), bits, lo, hi, [&](int64_t i, uint64_t c) {
        EXPECT_EQ(i, next++) << "width " << bits;
        EXPECT_EQ(c, codes[i]) << "width " << bits << " index " << i;
      });
      EXPECT_EQ(next, hi) << "width " << bits << " range " << lo;
    }
  }
  int64_t zeros = 0;
  ForEachCode(nullptr, 0, 3, 9, [&](int64_t, uint64_t c) { zeros += c == 0; });
  EXPECT_EQ(zeros, 6);
}

TEST(EncodeIntTest, FrameOfReferenceSmallRange) {
  std::vector<int64_t> v(1000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 1000000 + static_cast<int64_t>(i % 13);
  }
  auto e = EncodeIntColumn(v);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->enc, ColumnEncoding::kForInt);
  EXPECT_EQ(e->for_base, 1000000);
  EXPECT_EQ(e->bits, 4);  // range 12 → 4 bits
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(e->DecodeInt(static_cast<int64_t>(i)), v[i]) << i;
  }
}

TEST(EncodeIntTest, NegativeRange) {
  std::vector<int64_t> v(500);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = -100 - static_cast<int64_t>(i % 50);
  }
  auto e = EncodeIntColumn(v);
  ASSERT_NE(e, nullptr);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(e->DecodeInt(static_cast<int64_t>(i)), v[i]) << i;
  }
}

TEST(EncodeIntTest, AllEqualUsesZeroBits) {
  const std::vector<int64_t> v(256, 42);
  auto e = EncodeIntColumn(v);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->bits, 0);
  EXPECT_TRUE(e->words.empty());
  EXPECT_EQ(e->DecodeInt(0), 42);
  EXPECT_EQ(e->DecodeInt(255), 42);
}

TEST(EncodeIntTest, DictBeatsForOnSparseOutliers) {
  // Two distinct values astronomically far apart: FOR would need 63+ bits,
  // the dictionary needs 1.
  std::vector<int64_t> v(1000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = (i % 2) ? std::numeric_limits<int64_t>::max() / 3 : -999999999;
  }
  auto e = EncodeIntColumn(v);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->enc, ColumnEncoding::kDictInt);
  EXPECT_EQ(e->bits, 1);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(e->DecodeInt(static_cast<int64_t>(i)), v[i]) << i;
  }
}

TEST(EncodeIntTest, FullRangeOverflowStaysPlain) {
  // min..max range overflows the FOR width computation and cardinality is
  // too high for a dictionary: the encoder must decline, not wrap.
  std::vector<int64_t> v;
  Rng rng(0xFEED5);
  for (int i = 0; i < 200000; ++i) {
    v.push_back(static_cast<int64_t>(rng.Next()));
  }
  v.push_back(std::numeric_limits<int64_t>::min());
  v.push_back(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(EncodeIntColumn(v), nullptr);
}

TEST(EncodeIntTest, EmptyAndTinyColumnsStayPlain) {
  EXPECT_EQ(EncodeIntColumn({}), nullptr);
}

TEST(EncodeFloatTest, DictPreservesBitPatterns) {
  const double qnan = std::bit_cast<double>(uint64_t{0x7FF8000000000042});
  const double snan = std::bit_cast<double>(uint64_t{0x7FF0000000000001});
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) {
    switch (i % 4) {
      case 0: v.push_back(0.0); break;
      case 1: v.push_back(-0.0); break;
      case 2: v.push_back(qnan); break;
      case 3: v.push_back(snan); break;
    }
  }
  auto e = EncodeFloatColumn(v);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->enc, ColumnEncoding::kDictFloat);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(e->DecodeFloat(static_cast<int64_t>(i))),
              std::bit_cast<uint64_t>(v[i]))
        << i;
  }
}

TEST(EncodeFloatTest, HighCardinalityStaysPlain) {
  std::vector<double> v;
  Rng rng(0xF10A7);
  for (int i = 0; i < 100000; ++i) {
    v.push_back(static_cast<double>(rng.Next()) * 1e-5);
  }
  EXPECT_EQ(EncodeFloatColumn(v), nullptr);
}

TEST(EncodeStrTest, LowCardinalityDict) {
  std::vector<StringPool::Id> v;
  for (int i = 0; i < 3000; ++i) {
    v.push_back(static_cast<StringPool::Id>(i % 3 + 7));
  }
  auto e = EncodeStrColumn(v);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->enc, ColumnEncoding::kDictStr);
  EXPECT_EQ(e->bits, 2);
  // First-occurrence dictionary order is deterministic.
  ASSERT_EQ(e->dict_strs.size(), 3u);
  EXPECT_EQ(e->dict_strs[0], 7);
  EXPECT_EQ(e->dict_strs[1], 8);
  EXPECT_EQ(e->dict_strs[2], 9);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(e->DecodeStr(static_cast<int64_t>(i)), v[i]) << i;
  }
}

TEST(EncodeStrTest, HighCardinalityStaysPlain) {
  std::vector<StringPool::Id> v(100000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<StringPool::Id>(i);  // All distinct: dict > max.
  }
  EXPECT_EQ(EncodeStrColumn(v), nullptr);
}

// ------------------------------------------------- Column-level transitions

TEST(ColumnEncodeTest, EncodeThenElementAccess) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 2000; ++i) c.AppendInt(50 + i % 10);
  const int64_t before = c.MemoryUsageBytes();
  ASSERT_TRUE(c.Encode());
  EXPECT_TRUE(c.encoded());
  EXPECT_LT(c.MemoryUsageBytes(), before / 2);
  for (int64_t i = 0; i < 2000; ++i) ASSERT_EQ(c.GetInt(i), 50 + i % 10);
  EXPECT_TRUE(c.encoded()) << "element reads must not decode";
}

TEST(ColumnEncodeTest, MutationDecodesTransparently) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 1000; ++i) c.AppendInt(i % 4);
  ASSERT_TRUE(c.Encode());
  c.SetInt(500, -77);  // Exclusive mutation: decodes, drops the payload.
  EXPECT_FALSE(c.encoded());
  EXPECT_EQ(c.GetInt(500), -77);
  EXPECT_EQ(c.GetInt(501), 501 % 4);
}

TEST(ColumnEncodeTest, CopyOfEncodedColumnSharesPayload) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 1000; ++i) c.AppendInt(i % 4);
  ASSERT_TRUE(c.Encode());
  const Column copy(c);
  EXPECT_TRUE(copy.encoded());
  EXPECT_EQ(copy.encoded_state(), c.encoded_state());
  for (int64_t i = 0; i < 1000; ++i) ASSERT_EQ(copy.GetInt(i), i % 4);
}

TEST(ColumnEncodeTest, GatherFromEncodedStaysCorrect) {
  Column c(ColumnType::kInt);
  for (int64_t i = 0; i < 1000; ++i) c.AppendInt(i % 9);
  ASSERT_TRUE(c.Encode());
  const std::vector<int64_t> idx = {999, 0, 500, 3, 3};
  const Column g = c.Gather(idx);
  EXPECT_FALSE(g.encoded());
  ASSERT_EQ(g.size(), 5);
  EXPECT_EQ(g.GetInt(0), 999 % 9);
  EXPECT_EQ(g.GetInt(1), 0);
  EXPECT_EQ(g.GetInt(4), 3);
  EXPECT_TRUE(c.encoded()) << "gather must not materialize the source";
}

TEST(ColumnEncodeTest, EncodeDeclinesIncompressible) {
  Column c(ColumnType::kInt);
  Rng rng(0x14C0);
  for (int64_t i = 0; i < 50000; ++i) {
    c.AppendInt(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_FALSE(c.Encode());
  EXPECT_FALSE(c.encoded());
}

}  // namespace
}  // namespace ringo
