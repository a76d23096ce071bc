// Failure injection: corrupted or truncated index files must surface as
// clean Status errors (kCorruption / kIoError / kOutOfRange), never as
// crashes or silent wrong answers.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval_index.h"
#include "storage/block_device.h"
#include "storage/coding.h"
#include "storage/pager.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;

// Builds a small persisted index and returns its path.
std::string BuildIndexFile(const char* name, IndexKind kind) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  IndexOptions options;
  options.skeleton.expected_tuples = 500;
  options.skeleton.prediction_sample = 50;
  auto index = IntervalIndex::CreateOnDisk(kind, path, options).value();
  for (int i = 0; i < 500; ++i) {
    const double x = (i % 100) * 10.0;
    const double y = (i / 100) * 100.0;
    EXPECT_TRUE(index->Insert(Rect(x, x + 5, y, y + 5), i).ok());
  }
  EXPECT_TRUE(index->Commit().ok());
  return path;
}

// Flips bytes at `offset`.
void CorruptFile(const std::string& path, uint64_t offset, size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_TRUE(f != nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::vector<unsigned char> junk(n, 0xff);
  ASSERT_EQ(std::fwrite(junk.data(), 1, n, f), n);
  std::fclose(f);
}

TEST(CorruptionTest, GarbageSuperblockIsRejected) {
  const std::string path =
      BuildIndexFile("corrupt_super", IndexKind::kRTree);
  // Format v2 keeps two superblock slots (blocks 0 and 1); recovery falls
  // back to the surviving slot, so reject-on-open needs both damaged.
  CorruptFile(path, 0, 64);
  CorruptFile(path, 1024, 64);
  const auto result = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(CorruptionTest, TruncatedFileIsRejected) {
  const std::string path =
      BuildIndexFile("corrupt_truncated", IndexKind::kRTree);
  ASSERT_EQ(::truncate(path.c_str(), 512), 0);
  const auto result = IntervalIndex::OpenFromDisk(path, IndexOptions());
  EXPECT_FALSE(result.ok());
}

TEST(CorruptionTest, TruncatedBodySurfacesOnAccess) {
  const std::string path =
      BuildIndexFile("corrupt_body", IndexKind::kRTree);
  // Keep the superblock but drop most node pages.
  ASSERT_EQ(::truncate(path.c_str(), 4096), 0);
  auto opened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  if (!opened.ok()) return;  // Rejecting at open is fine too.
  std::vector<rtree::SearchHit> hits;
  const Status st = (*opened)->Search(Rect(0, 1000, 0, 1000), &hits);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(CorruptionTest, CorruptNodeEntryCountIsRejected) {
  const std::string path =
      BuildIndexFile("corrupt_node", IndexKind::kRTree);
  // Overwrite the entry-count field of every block after the superblock
  // with an impossible value; any node read must fail with kCorruption.
  for (uint64_t block = 1; block < 20; ++block) {
    CorruptFile(path, block * 1024 + 2, 2);
  }
  auto opened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  if (!opened.ok()) {
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    return;
  }
  std::vector<rtree::SearchHit> hits;
  const Status st = (*opened)->Search(Rect(0, 1000, 0, 1000), &hits);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(CorruptionTest, SingleFlippedPayloadByteIsDetected) {
  // A bit flip inside a node's entry payload (not its header) must be
  // caught by the page checksum.
  const std::string path =
      BuildIndexFile("corrupt_payload", IndexKind::kRTree);
  bool detected = false;
  // Damage the middle of several node pages; at least one belongs to a
  // node on the search path.
  for (uint64_t block = 1; block < 40; ++block) {
    CorruptFile(path, block * 1024 + 500, 1);
  }
  auto opened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  if (!opened.ok()) {
    detected = opened.status().code() == StatusCode::kCorruption;
  } else {
    std::vector<rtree::SearchHit> hits;
    const Status st = (*opened)->Search(Rect(0, 1000, 0, 1000), &hits);
    detected = !st.ok() && st.code() == StatusCode::kCorruption;
    if (!st.ok()) {
      EXPECT_NE(st.message().find("checksum"), std::string::npos)
          << st.ToString();
    }
  }
  EXPECT_TRUE(detected);
}

TEST(CorruptionTest, MissingFacadeMetaIsRejected) {
  const std::string path = testing::TempDir() + "/corrupt_no_meta";
  std::remove(path.c_str());
  // A valid pager file that never had a tree written to it.
  {
    auto pager = storage::Pager::Create(
                     storage::FileBlockDevice::Open(path, true).value(),
                     storage::PagerOptions())
                     .value();
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  const auto result = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(CorruptionTest, UnknownIndexKindIsRejected) {
  const std::string path =
      BuildIndexFile("corrupt_kind", IndexKind::kSRTree);
  // The facade metadata tail is [..., 'C', 'O', kind, built]; find and
  // break the kind byte via the pager's user-metadata API.
  {
    auto pager = storage::Pager::Open(
                     storage::FileBlockDevice::Open(path, false).value(),
                     storage::PagerOptions())
                     .value();
    std::vector<uint8_t> meta = pager->user_meta();
    ASSERT_GE(meta.size(), 4u);
    meta[meta.size() - 2] = 0x7f;  // Invalid kind.
    ASSERT_TRUE(pager->SetUserMeta(meta.data(), meta.size()).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  const auto result = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(CorruptionTest, RootPointerReservedBitsAreRejected) {
  const std::string path =
      BuildIndexFile("corrupt_root_ptr", IndexKind::kRTree);
  // The tree metadata stores the root PageId at offset 8 as a packed u64
  // whose bits 40-63 are reserved-zero. Flipping them must surface as a
  // clean corruption error at open, not as an aliased page address.
  {
    auto pager = storage::Pager::Open(
                     storage::FileBlockDevice::Open(path, false).value(),
                     storage::PagerOptions())
                     .value();
    std::vector<uint8_t> meta = pager->user_meta();
    ASSERT_GE(meta.size(), 16u);
    const uint64_t root = storage::DecodeU64(meta.data() + 8);
    storage::EncodeU64(meta.data() + 8,
                       root | (uint64_t{0xabcd} << 44));
    ASSERT_TRUE(pager->SetUserMeta(meta.data(), meta.size()).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  const auto result = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(CorruptionTest, IntactFileStillOpensAfterFailedAttempts) {
  // Sanity: the failure tests above must not be rejecting valid files.
  const std::string path =
      BuildIndexFile("corrupt_control", IndexKind::kSkeletonSRTree);
  IndexOptions options;
  auto opened = IntervalIndex::OpenFromDisk(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->size(), 500u);
  EXPECT_TRUE((*opened)->CheckInvariants().ok());
}

}  // namespace
}  // namespace segidx
