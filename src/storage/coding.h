// Little-endian fixed-width encoding helpers for on-page serialization.
//
// All node pages, the superblock, and free-list links are encoded with these
// helpers so that index files are byte-identical across platforms (the
// library assumes IEEE-754 doubles, which C++20 guarantees via
// std::numeric_limits<double>::is_iec559 on supported targets).

#ifndef SEGIDX_STORAGE_CODING_H_
#define SEGIDX_STORAGE_CODING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace segidx::storage {

inline void EncodeU16(uint8_t* dst, uint16_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
}

inline uint16_t DecodeU16(const uint8_t* src) {
  return static_cast<uint16_t>(src[0]) |
         static_cast<uint16_t>(src[1]) << 8;
}

inline void EncodeU32(uint8_t* dst, uint32_t v) {
  dst[0] = static_cast<uint8_t>(v);
  dst[1] = static_cast<uint8_t>(v >> 8);
  dst[2] = static_cast<uint8_t>(v >> 16);
  dst[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t DecodeU32(const uint8_t* src) {
  return static_cast<uint32_t>(src[0]) | static_cast<uint32_t>(src[1]) << 8 |
         static_cast<uint32_t>(src[2]) << 16 |
         static_cast<uint32_t>(src[3]) << 24;
}

inline void EncodeU64(uint8_t* dst, uint64_t v) {
  EncodeU32(dst, static_cast<uint32_t>(v));
  EncodeU32(dst + 4, static_cast<uint32_t>(v >> 32));
}

inline uint64_t DecodeU64(const uint8_t* src) {
  return static_cast<uint64_t>(DecodeU32(src)) |
         static_cast<uint64_t>(DecodeU32(src + 4)) << 32;
}

inline void EncodeDouble(uint8_t* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  EncodeU64(dst, bits);
}

inline double DecodeDouble(const uint8_t* src) {
  const uint64_t bits = DecodeU64(src);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace internal {

// The two implementations behind Crc32c. Both compute the same function;
// they are exposed so tests can compare them directly.

// Byte-at-a-time table loop: the portable path, and the reference the
// hardware path is tested against. About 0.35 bytes/ns (~0.1 byte/cycle).
uint32_t Crc32cPortable(const uint8_t* data, size_t n, uint32_t seed);

#if defined(__x86_64__)
// SSE4.2 `crc32` over 8-byte words (~8 bytes/ns, ~22x the table loop).
// Call it only where Crc32cHardwareSupported() is true.
uint32_t Crc32cSse42(const uint8_t* data, size_t n, uint32_t seed);
#endif

// Whether this CPU runs Crc32cSse42; false on every non-x86-64 target.
bool Crc32cHardwareSupported();

}  // namespace internal

// CRC-32C (Castagnoli: reflected polynomial 0x82f63b78, init and final XOR
// 0xffffffff) over a byte range, continuing from `seed` (a previous
// result). Guards node extents, superblock slots and checkpoint journal
// runs (docs/FILE_FORMAT.md). Uses the SSE4.2 instruction when the CPU has
// it, chosen once at run time, and the table loop otherwise; both produce
// identical values, so files move freely between the two.
uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0);

}  // namespace segidx::storage

#endif  // SEGIDX_STORAGE_CODING_H_
