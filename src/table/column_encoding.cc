#include "table/column_encoding.h"

#include <bit>
#include <cstring>

#include "storage/flat_hash_map.h"

namespace ringo {

namespace {

// Dictionaries beyond this stop paying for themselves (and keep encode's
// hash probe cache-resident).
constexpr int64_t kMaxDict = 1 << 16;

// Keep plain unless the encoded payload is at least ~10% smaller — tiny
// wins are not worth the decode branch.
constexpr double kMinSaving = 0.9;

int64_t WordsFor(int64_t n, int bits) {
  return (n * static_cast<int64_t>(bits) + 63) / 64;
}

int BitsForCount(int64_t distinct) {
  return distinct <= 1 ? 0 : std::bit_width(static_cast<uint64_t>(distinct - 1));
}

// Packs value-derived codes shared by every encoder.
void FinishCodes(EncodedColumn* e, const std::vector<uint64_t>& codes) {
  if (e->bits > 0) e->AdoptOwnedWords(PackCodes(codes, e->bits));
}

// Generic dictionary pass over 64-bit keys: first-occurrence order, bails
// past kMaxDict. Returns false on bail.
bool BuildDict(std::span<const uint64_t> keys, std::vector<uint64_t>* dict,
               std::vector<uint64_t>* codes) {
  FlatHashMap<uint64_t, int64_t> index(1024);
  codes->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    int64_t* slot = index.Find(keys[i]);
    int64_t code;
    if (slot != nullptr) {
      code = *slot;
    } else {
      if (static_cast<int64_t>(dict->size()) >= kMaxDict) return false;
      code = static_cast<int64_t>(dict->size());
      dict->push_back(keys[i]);
      index.Insert(keys[i], code);
    }
    (*codes)[i] = static_cast<uint64_t>(code);
  }
  return true;
}

}  // namespace

std::vector<uint64_t> PackCodes(std::span<const uint64_t> codes, int bits) {
  const int64_t n = static_cast<int64_t>(codes.size());
  std::vector<uint64_t> words(WordsFor(n, bits), 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t bitpos = static_cast<uint64_t>(i) * bits;
    const uint64_t word = bitpos >> 6;
    const int off = static_cast<int>(bitpos & 63);
    words[word] |= codes[i] << off;
    if (off + bits > 64) words[word + 1] = codes[i] >> (64 - off);
  }
  return words;
}

std::shared_ptr<const EncodedColumn> EncodeIntColumn(
    std::span<const int64_t> v) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0) return nullptr;
  int64_t mn = v[0], mx = v[0];
  for (int64_t x : v) {
    mn = x < mn ? x : mn;
    mx = x > mx ? x : mx;
  }
  const uint64_t range = static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  const int for_bits = range == 0 ? 0 : std::bit_width(range);
  const bool for_ok = for_bits <= 63;
  const int64_t plain_bytes = n * 8;
  const int64_t for_bytes =
      for_ok ? WordsFor(n, for_bits) * 8 : plain_bytes * 2;

  std::vector<uint64_t> dict;
  std::vector<uint64_t> dict_codes;
  const bool dict_ok = BuildDict(
      {reinterpret_cast<const uint64_t*>(v.data()), v.size()}, &dict,
      &dict_codes);
  const int dict_bits = BitsForCount(static_cast<int64_t>(dict.size()));
  const int64_t dict_bytes =
      dict_ok ? WordsFor(n, dict_bits) * 8 +
                    static_cast<int64_t>(dict.size()) * 8
              : plain_bytes * 2;

  const int64_t best = dict_bytes < for_bytes ? dict_bytes : for_bytes;
  if (static_cast<double>(best) > kMinSaving * plain_bytes) return nullptr;

  auto e = std::make_shared<EncodedColumn>();
  e->n = n;
  if (dict_bytes < for_bytes) {
    e->enc = ColumnEncoding::kDictInt;
    e->bits = dict_bits;
    e->dict_ints.resize(dict.size());
    std::memcpy(e->dict_ints.data(), dict.data(), dict.size() * 8);
    FinishCodes(e.get(), dict_codes);
  } else {
    e->enc = ColumnEncoding::kForInt;
    e->bits = for_bits;
    e->for_base = mn;
    std::vector<uint64_t> codes(n);
    for (int64_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(mn);
    }
    FinishCodes(e.get(), codes);
  }
  return e;
}

std::shared_ptr<const EncodedColumn> EncodeFloatColumn(
    std::span<const double> v) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0) return nullptr;
  // Dictionary over raw bit patterns: NaN payloads and signed zeros
  // round-trip exactly.
  std::vector<uint64_t> dict;
  std::vector<uint64_t> codes;
  if (!BuildDict({reinterpret_cast<const uint64_t*>(v.data()), v.size()},
                 &dict, &codes)) {
    return nullptr;
  }
  const int bits = BitsForCount(static_cast<int64_t>(dict.size()));
  const int64_t bytes =
      WordsFor(n, bits) * 8 + static_cast<int64_t>(dict.size()) * 8;
  if (static_cast<double>(bytes) > kMinSaving * (n * 8)) return nullptr;

  auto e = std::make_shared<EncodedColumn>();
  e->enc = ColumnEncoding::kDictFloat;
  e->n = n;
  e->bits = bits;
  e->dict_floats.resize(dict.size());
  std::memcpy(e->dict_floats.data(), dict.data(), dict.size() * 8);
  FinishCodes(e.get(), codes);
  return e;
}

std::shared_ptr<const EncodedColumn> EncodeStrColumn(
    std::span<const StringPool::Id> v) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0) return nullptr;
  std::vector<uint64_t> keys(n);
  for (int64_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(v[i]);
  std::vector<uint64_t> dict;
  std::vector<uint64_t> codes;
  if (!BuildDict(keys, &dict, &codes)) return nullptr;
  const int bits = BitsForCount(static_cast<int64_t>(dict.size()));
  const int64_t bytes = WordsFor(n, bits) * 8 +
                        static_cast<int64_t>(dict.size()) *
                            static_cast<int64_t>(sizeof(StringPool::Id));
  if (static_cast<double>(bytes) >
      kMinSaving * (n * static_cast<int64_t>(sizeof(StringPool::Id)))) {
    return nullptr;
  }

  auto e = std::make_shared<EncodedColumn>();
  e->enc = ColumnEncoding::kDictStr;
  e->n = n;
  e->bits = bits;
  e->dict_strs.resize(dict.size());
  for (size_t k = 0; k < dict.size(); ++k) {
    e->dict_strs[k] = static_cast<StringPool::Id>(dict[k]);
  }
  FinishCodes(e.get(), codes);
  return e;
}

}  // namespace ringo
