#include "storage/coding.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace segidx::storage {
namespace {

TEST(CodingTest, U16RoundTrip) {
  uint8_t buf[2];
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    EncodeU16(buf, static_cast<uint16_t>(v));
    EXPECT_EQ(DecodeU16(buf), v);
  }
}

TEST(CodingTest, U32RoundTrip) {
  uint8_t buf[4];
  for (uint32_t v : {0u, 1u, 0xffu, 0xff00ff00u, 0xffffffffu}) {
    EncodeU32(buf, v);
    EXPECT_EQ(DecodeU32(buf), v);
  }
}

TEST(CodingTest, U64RoundTrip) {
  uint8_t buf[8];
  for (uint64_t v :
       {0ULL, 1ULL, 0xdeadbeefULL, 0x0123456789abcdefULL, ~0ULL}) {
    EncodeU64(buf, v);
    EXPECT_EQ(DecodeU64(buf), v);
  }
}

TEST(CodingTest, EncodingIsLittleEndian) {
  uint8_t buf[4];
  EncodeU32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodingTest, DoubleRoundTrip) {
  uint8_t buf[8];
  for (double v : {0.0, -0.0, 1.5, -123456.789, 1e300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    EncodeDouble(buf, v);
    EXPECT_EQ(DecodeDouble(buf), v);
  }
}

TEST(ChecksumTest, DeterministicAndSensitive) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  const uint32_t base = Crc32c(data.data(), data.size());
  EXPECT_EQ(Crc32c(data.data(), data.size()), base);
  // Any single-byte change anywhere must flip the checksum.
  for (size_t pos : {0u, 7u, 8u, 499u, 993u, 999u}) {
    std::vector<uint8_t> copy = data;
    copy[pos] ^= 0x01;
    EXPECT_NE(Crc32c(copy.data(), copy.size()), base) << pos;
  }
  // Length matters.
  EXPECT_NE(Crc32c(data.data(), data.size() - 1), base);
}

TEST(ChecksumTest, EmptyAndShortInputs) {
  const uint8_t byte = 0x42;
  EXPECT_EQ(Crc32c(&byte, 0), 0u);
  const uint32_t one = Crc32c(&byte, 1);
  const uint8_t other = 0x43;
  EXPECT_NE(Crc32c(&other, 1), one);
}

// Pins the on-disk checksum: the standard CRC-32C check value, computed
// whole and as a seeded continuation (how node pages chain the header and
// the payload around the checksum field).
TEST(ChecksumTest, Crc32cKnownAnswer) {
  const std::string check = "123456789";
  const auto* bytes = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32c(bytes, check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(bytes + 4, check.size() - 4, Crc32c(bytes, 4)),
            0xE3069283u);
}

// The SSE4.2 path must produce the table loop's values bit for bit: both
// write the same files. Covers every 0-7 byte tail after the 8-byte words,
// every start alignment, whole 1 KB leaf extents, random seeds and chained
// (seeded) calls.
TEST(ChecksumTest, HardwarePathMatchesTablePath) {
  if (!internal::Crc32cHardwareSupported()) {
    GTEST_SKIP() << "CPU has no SSE4.2; only the table path runs here";
  }
#if defined(__x86_64__)
  using internal::Crc32cPortable;
  using internal::Crc32cSse42;
  Rng rng(19);
  std::vector<uint8_t> buf(1100 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1100; ++n) {
      const auto seed = static_cast<uint32_t>(rng.NextU64());
      const uint8_t* data = buf.data() + offset;
      ASSERT_EQ(Crc32cSse42(data, n, seed), Crc32cPortable(data, n, seed))
          << "offset " << offset << " length " << n << " seed " << seed;
      ASSERT_EQ(Crc32cSse42(data, n, 0), Crc32cPortable(data, n, 0))
          << "offset " << offset << " length " << n;
    }
  }

  // A continuation split anywhere equals the whole, on both paths.
  const uint8_t* data = buf.data();
  const uint32_t whole = Crc32cPortable(data, 64, 0);
  for (size_t split = 0; split <= 64; ++split) {
    EXPECT_EQ(
        Crc32cSse42(data + split, 64 - split, Crc32cSse42(data, split, 0)),
        whole)
        << split;
    EXPECT_EQ(Crc32cPortable(data + split, 64 - split,
                             Crc32cPortable(data, split, 0)),
              whole)
        << split;
  }

  const std::string check = "123456789";
  const auto* bytes = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32cSse42(bytes, check.size(), 0), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(bytes, check.size(), 0), 0xE3069283u);
#endif
}

TEST(CodingTest, NanRoundTripsBitExact) {
  uint8_t buf[8];
  EncodeDouble(buf, std::numeric_limits<double>::quiet_NaN());
  const double back = DecodeDouble(buf);
  EXPECT_NE(back, back);  // Still NaN.
}

}  // namespace
}  // namespace segidx::storage
