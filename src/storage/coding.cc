#include "storage/coding.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace segidx::storage {

namespace internal {

namespace {

constexpr uint32_t kCastagnoliReflected = 0x82f63b78u;

const std::array<uint32_t, 256>& Crc32cTable() {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCastagnoliReflected : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32cPortable(const uint8_t* data, size_t n, uint32_t seed) {
  const std::array<uint32_t, 256>& table = Crc32cTable();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 without raising the baseline of the whole build:
// only this function uses the instruction, and Crc32c calls it only on a
// CPU that has it. x86-64 is little-endian, so an 8-byte load feeds the
// bytes to `crc32` in memory order, exactly as the table loop consumes
// them.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* data,
                                                        size_t n,
                                                        uint32_t seed) {
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}
#endif

bool Crc32cHardwareSupported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  static const auto impl = internal::Crc32cHardwareSupported()
                               ? &internal::Crc32cSse42
                               : &internal::Crc32cPortable;
  return impl(data, n, seed);
#else
  return internal::Crc32cPortable(data, n, seed);
#endif
}

}  // namespace segidx::storage
