#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ringo {

namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320, built once at
// startup. Table 0 is the classic bytewise table; table k folds a byte
// sitting k positions ahead, so the hot loop consumes 8 bytes per step with
// eight independent lookups instead of a serial per-byte chain. The CRC
// values are identical to the bytewise form — only the schedule changes.
std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = t[0][i];
    for (int k = 1; k < 8; ++k) {
      c = t[0][c & 0xFF] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

const std::array<std::array<uint32_t, 256>, 8>& Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> t = BuildTables();
  return t;
}

#if defined(__x86_64__)
// Carry-less-multiply folding for long ranges (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
// 2009): four 128-bit lanes fold 64 bytes per step, collapse to one lane,
// and a Barrett reduction brings the remainder to 32 bits. Same CRC as the
// table path, ~10× the bytes per cycle.
#define RINGO_CLMUL __attribute__((target("pclmul,sse4.1")))

bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

RINGO_CLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x·(k_hi, k_lo) folded onto `next`: the lane advanced by the distance
// the constant pair encodes.
RINGO_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// `c` is the inverted running register, as in Crc32Update; len >= 64 and
// a multiple of 16. Returns the register after the bytes.
RINGO_CLMUL uint32_t FoldClmul(uint32_t c, const uint8_t* p, size_t len) {
  // Bit-reflected constants for 0x04C11DB7 from the paper's appendix:
  // x^(512±32) and x^(128±32) mod P for the 4-lane and 1-lane folds, x^64
  // mod P, and P' with mu = floor(x^64 / P) for the reduction.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 → 64 bits, then 64 → 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett: q = floor(r·mu / x^64), remainder = r - q·P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}
#endif  // __x86_64__

constexpr uint32_t kPoly = 0xEDB88320u;  // Reflected: bit 31 is x^0.

// a·b modulo the polynomial, in the reflected bit order the CRC uses.
uint32_t MulModPoly(uint32_t a, uint32_t b) {
  uint32_t prod = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) prod ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;  // b·x
  }
  return prod;
}

// Pow2Table()[k] = x^(2^k) modulo the polynomial. For this polynomial
// x^(2^32) = x, so the sequence repeats with period 32 and 32 entries
// cover every power.
const std::array<uint32_t, 32>& Pow2Table() {
  static const std::array<uint32_t, 32> t = [] {
    std::array<uint32_t, 32> p{};
    p[0] = 1u << 30;  // x^1
    for (int k = 1; k < 32; ++k) p[k] = MulModPoly(p[k - 1], p[k - 1]);
    return p;
  }();
  return t;
}

}  // namespace

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  // x^(8·len_b): multiply in x^(2^k) for every set bit k of 8·len_b.
  const auto& pow2 = Pow2Table();
  uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1) shift = MulModPoly(pow2[k & 31], shift);
  }
  return MulModPoly(shift, crc_a) ^ crc_b;
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto& t = Tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (len >= 64 && HasClmul()) {
    const size_t folded = len & ~size_t{15};
    c = FoldClmul(c, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  while (len >= 8) {
    // Unaligned-safe 8-byte fetch; each memcpy compiles to one load.
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

}  // namespace ringo
