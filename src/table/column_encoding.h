// Encoded column payloads (DESIGN.md §14): dictionary encoding for
// low-cardinality int/float/string columns and frame-of-reference +
// bit-packing for range-bound int columns. Encoding is chosen per column
// from observed stats (min/max span, distinct count) and is fully
// transparent behind the Column API: element accessors decode O(1) per
// element, and any raw-vector access lazily materializes the plain vector
// (thread-safe, once) so operators and key_normalize never see codes.
//
// The packed code stream is bit-exact and position-addressed, so a stream
// written to an .rtb file can be mapped back zero-copy: `words` then
// borrows the mapping (kept alive by `owner`) instead of owned storage.
#ifndef RINGO_TABLE_COLUMN_ENCODING_H_
#define RINGO_TABLE_COLUMN_ENCODING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/string_pool.h"

namespace ringo {

enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kDictInt = 1,
  kDictFloat = 2,
  kDictStr = 3,
  kForInt = 4,  // value = for_base + code
};

// Extracts code i from a little-endian bit-packed stream. bits in [1, 63];
// codes may straddle a word boundary.
inline uint64_t UnpackBits(const uint64_t* w, int64_t i, int bits) {
  const uint64_t bitpos = static_cast<uint64_t>(i) * bits;
  const uint64_t word = bitpos >> 6;
  const int off = static_cast<int>(bitpos & 63);
  uint64_t v = w[word] >> off;
  if (off + bits > 64) v |= w[word + 1] << (64 - off);
  return v & ((uint64_t{1} << bits) - 1);
}

// Packs `codes` at `bits` bits each (bits in [1, 63], every code < 2^bits).
std::vector<uint64_t> PackCodes(std::span<const uint64_t> codes, int bits);

// One immutable encoded payload. Exactly one dict vector is populated for
// the dict encodings; kForInt uses for_base + the code stream alone.
// bits == 0 means every row decodes to dict[0] (or for_base) and the code
// stream is empty.
struct EncodedColumn {
  ColumnEncoding enc = ColumnEncoding::kPlain;
  int64_t n = 0;
  int bits = 0;
  int64_t for_base = 0;
  std::vector<int64_t> dict_ints;
  std::vector<double> dict_floats;
  std::vector<StringPool::Id> dict_strs;

  // Packed codes: `words` views either owned_words or an external buffer
  // (e.g. an mmap) kept alive by `owner`.
  std::span<const uint64_t> words;
  std::vector<uint64_t> owned_words;
  std::shared_ptr<const void> owner;

  void AdoptOwnedWords(std::vector<uint64_t> w) {
    owned_words = std::move(w);
    words = owned_words;
  }
  void BorrowWords(std::span<const uint64_t> w,
                   std::shared_ptr<const void> keep_alive) {
    words = w;
    owner = std::move(keep_alive);
  }

  uint64_t Code(int64_t i) const {
    return bits == 0 ? 0 : UnpackBits(words.data(), i, bits);
  }
  int64_t DecodeInt(int64_t i) const {
    return enc == ColumnEncoding::kForInt
               ? for_base + static_cast<int64_t>(Code(i))
               : dict_ints[Code(i)];
  }
  double DecodeFloat(int64_t i) const { return dict_floats[Code(i)]; }
  StringPool::Id DecodeStr(int64_t i) const { return dict_strs[Code(i)]; }

  int64_t MemoryUsageBytes() const {
    return static_cast<int64_t>(
        words.size() * sizeof(uint64_t) + dict_ints.size() * sizeof(int64_t) +
        dict_floats.size() * sizeof(double) +
        dict_strs.size() * sizeof(StringPool::Id) + sizeof(*this));
  }
};

// Stats-driven encoders. Each returns nullptr when encoding would not save
// at least ~10% over the plain vector (or the column is empty) — the
// caller keeps the plain layout.
std::shared_ptr<const EncodedColumn> EncodeIntColumn(
    std::span<const int64_t> v);
std::shared_ptr<const EncodedColumn> EncodeFloatColumn(
    std::span<const double> v);
std::shared_ptr<const EncodedColumn> EncodeStrColumn(
    std::span<const StringPool::Id> v);

}  // namespace ringo

#endif  // RINGO_TABLE_COLUMN_ENCODING_H_
