// CRC-32 (ISO-HDLC polynomial, the zlib/PNG one): carry-less-multiply
// folding on x86-64 CPUs with PCLMULQDQ, slice-by-8 tables elsewhere and
// for short tails — the same values either way. Guards the .rtb binary
// table format's header, directory, and column segments (DESIGN.md §14):
// cheap enough to verify at load, strong enough to catch truncation and
// bit rot.
#ifndef RINGO_UTIL_CHECKSUM_H_
#define RINGO_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace ringo {

// One-shot CRC-32 of a byte range.
uint32_t Crc32(const void* data, size_t len);

// Incremental form: feed `crc` from the previous call (start with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

// CRC-32 of the concatenation A·B from crc_a = Crc32(A), crc_b = Crc32(B)
// and len_b = |B|, in O(log len_b) without touching the bytes (zlib's
// crc32_combine: crc_a is multiplied by x^(8·len_b) modulo the
// polynomial). Lets blocks of one range be checksummed in parallel and
// joined in order, bit-identical to Crc32 over the whole range.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

}  // namespace ringo

#endif  // RINGO_UTIL_CHECKSUM_H_
