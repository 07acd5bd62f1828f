// CRC-32 known-answer, incremental and combine tests. The implementation
// folds long ranges with carry-less multiplies where the CPU has them and
// runs slice-by-8 tables otherwise, but the values must stay the standard
// reflected ISO-HDLC/zlib CRC-32 — every .rtb file on disk depends on it.
#include "util/checksum.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace ringo {
namespace {

TEST(Crc32Test, KnownAnswers) {
  // The canonical check value for CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
  const std::string quick = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(quick.data(), quick.size()), 0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShotAtEverySplit) {
  // Exercises every slice-by-8 tail length and misaligned resume point.
  std::vector<uint8_t> buf(257);
  Rng rng(0xC5C5);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t c = Crc32Update(0, buf.data(), split);
    c = Crc32Update(c, buf.data() + split, buf.size() - split);
    ASSERT_EQ(c, whole) << "split at " << split;
  }
}

// Bitwise CRC-32 straight from the definition, sharing nothing with the
// library's table and carry-less-multiply kernels.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

// Every length up to 600 at every misalignment within 16 bytes: covers the
// short table-only ranges, the folded kernel's 64-byte entry point, its
// 16-byte single folds and every table tail behind it.
TEST(Crc32Test, MatchesBitwiseDefinitionAtEveryLengthAndAlignment) {
  std::vector<uint8_t> buf(600 + 16);
  Rng rng(0xB17);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t off = 0; off < 16; ++off) {
    for (size_t n = 0; n <= 600; ++n) {
      ASSERT_EQ(Crc32(buf.data() + off, n), BitwiseCrc32(buf.data() + off, n))
          << "offset " << off << ", length " << n;
    }
  }
  std::vector<uint8_t> big(1 << 20);
  for (auto& b : big) b = static_cast<uint8_t>(rng.Next());
  EXPECT_EQ(Crc32(big.data(), big.size()),
            BitwiseCrc32(big.data(), big.size()));
}

// Crc32Combine joins the CRCs of consecutive pieces into the CRC of the
// whole, bit-identical to Crc32, for random buffers cut at random points
// (empty pieces included) and for pieces long enough to use every bit of
// the length.
TEST(Crc32Test, CombineMatchesOneShotOnRandomSplits) {
  Rng rng(0xC0B1);
  for (int trial = 0; trial < 200; ++trial) {
    // The last ten are megabytes long, so the length has high bits set.
    const int64_t n64 = trial < 190 ? rng.UniformInt(0, 3000)
                                    : rng.UniformInt(1 << 20, 3 << 20);
    const size_t n = static_cast<size_t>(n64);
    std::vector<uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    std::vector<size_t> cuts = {0, n};
    const int pieces = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < pieces; ++i) {
      cuts.push_back(
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n))));
    }
    std::sort(cuts.begin(), cuts.end());
    uint32_t crc = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const size_t len = cuts[i + 1] - cuts[i];
      crc = Crc32Combine(crc, Crc32(buf.data() + cuts[i], len), len);
    }
    ASSERT_EQ(crc, Crc32(buf.data(), n)) << "trial " << trial << ", n=" << n;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> buf(64);
  Rng rng(0xF1195);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t clean = Crc32(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); byte += 7) {
    buf[byte] ^= 1u << (byte % 8);
    EXPECT_NE(Crc32(buf.data(), buf.size()), clean);
    buf[byte] ^= 1u << (byte % 8);
  }
}

}  // namespace
}  // namespace ringo
