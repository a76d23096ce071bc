// Little-endian fixed-width encoding helpers for on-page serialization.
//
// All node pages, the superblock, and free-list links are encoded with these
// helpers so that index files are byte-identical across platforms (the
// library assumes IEEE-754 doubles, which C++20 guarantees via
// std::numeric_limits<double>::is_iec559 on supported targets).

#ifndef SEGIDX_STORAGE_CODING_H_
#define SEGIDX_STORAGE_CODING_H_

#include <array>
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

// Lazily built lookup table for the Castagnoli polynomial (reflected
// 0x82f63b78). Function-local static so header-only users share one copy.
inline const uint32_t* Crc32cTable() {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table.data();
}

}  // namespace internal

// CRC32C (Castagnoli) over a byte range. Guards the format-v2 superblock
// slots, checkpoint journal, and node extents, where error detection
// strength matters more than the last nanosecond (the table-driven form is
// still a few bytes/cycle).
inline uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  const uint32_t* table = internal::Crc32cTable();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace segidx::storage

#endif  // SEGIDX_STORAGE_CODING_H_
