// Crash-safety suite: fault-injecting device behavior, dual-superblock
// recovery, degraded read-only mode, format v1 rejection, checkpoint-on-close,
// and the systematic crash-at-every-op torture sweep (ISSUE 4).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval_index.h"
#include "storage/block_device.h"
#include "storage/coding.h"
#include "storage/fault_injection.h"
#include "storage/pager.h"
#include "torture/recovery_torture.h"
#include "torture/scrub_torture.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;
using storage::BlockDevice;
using storage::EncodeU16;
using storage::EncodeU32;
using storage::EncodeU64;
using storage::FaultInjectingBlockDevice;
using storage::MemoryBlockDevice;
using storage::PageHandle;
using storage::PageId;
using storage::Pager;
using storage::PagerOptions;

// --- FaultInjectingBlockDevice ---------------------------------------------

std::unique_ptr<FaultInjectingBlockDevice> FaultDevice() {
  return std::make_unique<FaultInjectingBlockDevice>(
      std::make_unique<MemoryBlockDevice>());
}

TEST(FaultInjectionTest, FailNthWriteFiresOnceUnlessSticky) {
  auto dev = FaultDevice();
  const uint8_t b[4] = {1, 2, 3, 4};
  dev->FailNthWrite(1);
  EXPECT_TRUE(dev->Write(0, b, 4).ok());
  EXPECT_EQ(dev->Write(4, b, 4).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev->Write(8, b, 4).ok());
  EXPECT_EQ(dev->counters().writes, 3u);
  EXPECT_EQ(dev->counters().faults_fired, 1u);
}

TEST(FaultInjectionTest, TornWritePersistsPrefixOnly) {
  auto dev = FaultDevice();
  const uint8_t b[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  dev->FailNthWrite(0, /*sticky=*/false, /*tear_bytes=*/4);
  const Status st = dev->Write(0, b, 8);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("torn"), std::string::npos);
  // Only the torn prefix reached the inner device.
  EXPECT_EQ(dev->inner()->size(), 4u);
}

TEST(FaultInjectionTest, StickySyncAndReadFailures) {
  auto dev = FaultDevice();
  dev->FailNthSync(0, /*sticky=*/true);
  EXPECT_EQ(dev->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(dev->Sync().code(), StatusCode::kIoError);

  const uint8_t b[4] = {1, 2, 3, 4};
  uint8_t out[4];
  EXPECT_TRUE(dev->Write(0, b, 4).ok());
  dev->FailNthRead(0);  // Not sticky: only the next read fails.
  EXPECT_EQ(dev->Read(0, 4, out).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev->Read(0, 4, out).ok());
  EXPECT_EQ(out[3], 4);
}

TEST(FaultInjectionTest, CrashAtOpKillsWritesButNotReads) {
  auto dev = FaultDevice();
  const uint8_t b[4] = {5, 6, 7, 8};
  dev->CrashAtOp(2);                       // write=op0, sync=op1, crash at 2.
  EXPECT_TRUE(dev->Write(0, b, 4).ok());
  EXPECT_TRUE(dev->Sync().ok());
  EXPECT_FALSE(dev->crashed());
  EXPECT_EQ(dev->Write(4, b, 4).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev->crashed());
  EXPECT_EQ(dev->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(dev->Write(8, b, 4).code(), StatusCode::kIoError);
  uint8_t out[4];
  EXPECT_TRUE(dev->Read(0, 4, out).ok());  // The image stays observable.
  EXPECT_EQ(out[0], 5);
}

TEST(FaultInjectionTest, ReadOnlyModeAndClearFaults) {
  auto dev = FaultDevice();
  const uint8_t b[4] = {1, 1, 1, 1};
  dev->SetReadOnly(true);
  EXPECT_EQ(dev->Write(0, b, 4).code(), StatusCode::kIoError);
  EXPECT_EQ(dev->Sync().code(), StatusCode::kIoError);
  dev->SetReadOnly(false);
  EXPECT_TRUE(dev->Write(0, b, 4).ok());

  dev->FailNthWrite(0, /*sticky=*/true);
  dev->ClearFaults();
  EXPECT_TRUE(dev->Write(4, b, 4).ok());
}

// --- MemoryBlockDevice ------------------------------------------------------

TEST(MemoryBlockDeviceTest, TruncateGrowThenShrinkZeroes) {
  MemoryBlockDevice dev;
  const uint8_t ones[8] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(dev.Write(0, ones, 8).ok());
  ASSERT_TRUE(dev.Truncate(16).ok());
  uint8_t out[8];
  ASSERT_TRUE(dev.Read(8, 8, out).ok());
  for (uint8_t byte : out) EXPECT_EQ(byte, 0);

  // Fill the grown tail, shrink it away, grow again: the re-grown region
  // must come back zeroed, not with its previous contents.
  ASSERT_TRUE(dev.Write(8, ones, 8).ok());
  ASSERT_TRUE(dev.Truncate(8).ok());
  ASSERT_TRUE(dev.Truncate(16).ok());
  ASSERT_TRUE(dev.Read(8, 8, out).ok());
  for (uint8_t byte : out) EXPECT_EQ(byte, 0);
  EXPECT_EQ(dev.size(), 16u);
}

// --- Dual-superblock recovery ----------------------------------------------

PagerOptions SmallPagerOptions() {
  PagerOptions options;
  options.buffer_pool_bytes = 16 * 1024;
  options.lru_partitions = 1;
  return options;
}

// Builds a v2 image with `checkpoints` checkpoints, each allocating a page
// stamped with the checkpoint number.
std::vector<uint8_t> BuildImage(int checkpoints,
                                std::vector<PageId>* pages = nullptr) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  auto pager = Pager::Create(std::move(device), SmallPagerOptions()).value();
  for (int i = 0; i < checkpoints; ++i) {
    PageHandle page = pager->Allocate(0).value();
    page.data()[0] = static_cast<uint8_t>(i + 1);
    page.MarkDirty();
    if (pages != nullptr) pages->push_back(page.id());
    page.Release();
    EXPECT_TRUE(pager->Checkpoint().ok());
  }
  return raw->Snapshot();
}

Result<std::unique_ptr<Pager>> OpenImage(std::vector<uint8_t> image) {
  return Pager::Open(std::make_unique<MemoryBlockDevice>(std::move(image)),
                     SmallPagerOptions());
}

TEST(DualSlotTest, FreshCreateReportsSlotZeroEpochOne) {
  auto pager =
      Pager::Create(std::make_unique<MemoryBlockDevice>(), SmallPagerOptions())
          .value();
  const storage::RecoveryReport& report = pager->recovery_report();
  EXPECT_EQ(report.active_slot, 0);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_FALSE(report.fell_back);
  EXPECT_EQ(pager->epoch(), 1u);
  EXPECT_EQ(pager->allocated_blocks(), storage::kFirstDataBlock);
}

TEST(DualSlotTest, CheckpointsAlternateSlotsAndBumpEpoch) {
  std::vector<uint8_t> image = BuildImage(3);  // Epochs 2, 3, 4.
  auto pager = OpenImage(std::move(image)).value();
  EXPECT_EQ(pager->epoch(), 4u);
  // Epoch 4 is the third checkpoint: slots went 0→1→0→1.
  EXPECT_EQ(pager->recovery_report().active_slot, 1);
  EXPECT_FALSE(pager->recovery_report().fell_back);
}

// The acceptance matrix: with either slot independently zeroed or
// bit-flipped, the file must still open via the surviving slot; with both
// damaged it must fail cleanly with kCorruption.
TEST(DualSlotTest, SurvivesEitherSlotDamagedIndependently) {
  std::vector<PageId> pages;
  const std::vector<uint8_t> image = BuildImage(3, &pages);

  for (int slot = 0; slot < 2; ++slot) {
    for (const bool zero : {true, false}) {
      std::vector<uint8_t> copy = image;
      for (size_t i = 0; i < 1024; ++i) {
        uint8_t& b = copy[slot * 1024 + i];
        b = zero ? 0 : static_cast<uint8_t>(~b);
      }
      auto pager = OpenImage(std::move(copy));
      ASSERT_TRUE(pager.ok()) << "slot " << slot << " zero=" << zero << ": "
                              << pager.status().ToString();
      const storage::RecoveryReport& report = (*pager)->recovery_report();
      EXPECT_TRUE(report.fell_back);
      EXPECT_EQ(report.active_slot, slot ^ 1);
      EXPECT_FALSE(report.slot_error[slot].empty());
      // Slot 1 held epoch 4 (newest); killing it falls back to epoch 3.
      EXPECT_EQ(report.epoch, slot == 1 ? 3u : 4u);
      // Every page the surviving checkpoint covers is intact.
      const int visible = slot == 1 ? 2 : 3;
      for (int i = 0; i < visible; ++i) {
        PageHandle page = (*pager)->Fetch(pages[i]).value();
        EXPECT_EQ(page.data()[0], i + 1);
      }
    }
  }

  std::vector<uint8_t> both = image;
  for (size_t i = 0; i < 2048; ++i) both[i] = 0xff;
  auto pager = OpenImage(std::move(both));
  ASSERT_FALSE(pager.ok());
  EXPECT_EQ(pager.status().code(), StatusCode::kCorruption);
  EXPECT_NE(pager.status().message().find("no usable superblock slot"),
            std::string::npos);
}

TEST(DualSlotTest, ReopenAfterFreeWithoutCheckpointLosesOnlyTheFree) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  auto pager = Pager::Create(std::move(device), SmallPagerOptions()).value();
  PageId a, b;
  {
    PageHandle pa = pager->Allocate(0).value();
    a = pa.id();
    PageHandle pb = pager->Allocate(0).value();
    b = pb.id();
  }
  ASSERT_TRUE(pager->Checkpoint().ok());
  ASSERT_TRUE(pager->Free(b).ok());
  // The free never checkpointed, so the reopened file still sees `b`
  // allocated — a leak of one extent, never corruption.
  auto reopened = OpenImage(raw->Snapshot());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Fetch(a).ok());
  EXPECT_TRUE((*reopened)->Fetch(b).ok());
  auto free_extents = (*reopened)->FreeExtents();
  ASSERT_TRUE(free_extents.ok());
  for (const PageId& id : *free_extents) EXPECT_NE(id.block, b.block);
}

// --- Degraded read-only mode ------------------------------------------------

TEST(DegradedModeTest, HardSpillFailureFlipsReadOnlyButKeepsServing) {
  auto device = FaultDevice();
  FaultInjectingBlockDevice* dev = device.get();
  PagerOptions options;
  options.buffer_pool_bytes = 4 * 1024;  // Four one-block frames.
  options.lru_partitions = 1;
  auto pager = Pager::Create(std::move(device), options).value();

  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    PageHandle page = pager->Allocate(0).value();
    page.data()[0] = static_cast<uint8_t>(0x10 + i);
    page.MarkDirty();
    pages.push_back(page.id());
  }
  ASSERT_TRUE(pager->Checkpoint().ok());

  // Dirty every cached frame, then kill the device for writes: the next
  // eviction must spill, fail hard, and flip the pager degraded.
  for (int i = 0; i < 4; ++i) {
    PageHandle page = pager->Fetch(pages[i]).value();
    page.data()[0] = static_cast<uint8_t>(0x20 + i);
    page.MarkDirty();
  }
  dev->FailNthWrite(0, /*sticky=*/true);
  PageHandle extra = pager->Allocate(0).value();  // Forces the eviction.
  extra.Release();
  EXPECT_TRUE(pager->degraded());
  EXPECT_EQ(pager->stats().degraded, 1u);

  // Reads keep working: un-evicted dirty frames serve their latest bytes.
  for (int i = 0; i < 4; ++i) {
    PageHandle page = pager->Fetch(pages[i]).value();
    EXPECT_EQ(page.data()[0], 0x20 + i);
  }
  // Mutations are refused with kUnavailable.
  EXPECT_EQ(pager->Allocate(0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pager->Free(pages[0]).code(), StatusCode::kUnavailable);
  EXPECT_EQ(pager->Checkpoint().code(), StatusCode::kUnavailable);
  const uint8_t meta[1] = {7};
  EXPECT_EQ(pager->SetUserMeta(meta, 1).code(), StatusCode::kUnavailable);
  // The degraded marker survives a stats reset.
  pager->ResetStats();
  EXPECT_EQ(pager->stats().degraded, 1u);
}

TEST(DegradedModeTest, SearchSucceedsAfterMidSearchWriteFailure) {
  auto device = FaultDevice();
  FaultInjectingBlockDevice* dev = device.get();
  IndexOptions options;
  options.pager.buffer_pool_bytes = 16 * 1024;
  auto index = IntervalIndex::CreateWithDevice(IndexKind::kRTree,
                                               std::move(device), options)
                   .value();
  const int kRecords = 400;
  for (int i = 0; i < kRecords; ++i) {
    const double x = (i % 100) * 10.0;
    ASSERT_TRUE(index->Insert(Rect(x, x + 5, i / 100 * 8.0, i / 100 * 8.0 + 4),
                              i + 1)
                    .ok());
  }
  ASSERT_TRUE(index->Commit().ok());
  // New inserts dirty pages; with writes dead, the eviction pressure of a
  // full-space search must degrade the pager, not break the search.
  for (int i = kRecords; i < kRecords + 50; ++i) {
    ASSERT_TRUE(index->Insert(Rect(3.0, 8.0, 3.0, 8.0), i + 1).ok());
  }
  dev->FailNthWrite(0, /*sticky=*/true);
  std::vector<TupleId> tids;
  ASSERT_TRUE(
      index->SearchTuples(Rect(-1e9, 1e9, -1e9, 1e9), &tids).ok());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kRecords + 50));
  EXPECT_EQ(index->storage_stats().degraded, 1u);
  // Persisting is refused; the previous checkpoint stays the durable state.
  EXPECT_EQ(index->Commit().code(), StatusCode::kUnavailable);
  EXPECT_EQ(index->Close().code(), StatusCode::kUnavailable);
}

// --- Format v1 is rejected ---------------------------------------------------

std::vector<uint8_t> BuildV1Image() {
  // Hand-rolled v1 superblock: magic "SEGIDX01", version 1, bbs 1024,
  // max_size_class 7, next_block 1, empty free lists, no metadata.
  std::vector<uint8_t> image(1024, 0);
  EncodeU64(image.data(), 0x5345474944583031ull);
  EncodeU32(image.data() + 8, 1);
  EncodeU32(image.data() + 12, 1024);
  image[16] = 7;
  EncodeU32(image.data() + 24, 1);
  for (int sc = 0; sc <= 7; ++sc) {
    EncodeU32(image.data() + 28 + sc * 4, storage::kInvalidBlock);
  }
  EncodeU16(image.data() + 28 + 8 * 4, 0);
  return image;
}

TEST(LegacyV1Test, OpenFailsNamingFormatV1) {
  auto pager = OpenImage(BuildV1Image());
  ASSERT_FALSE(pager.ok());
  EXPECT_EQ(pager.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(pager.status().message().find("format v1"), std::string::npos)
      << pager.status().ToString();
}

// --- Checkpoint on close ----------------------------------------------------

TEST(CloseTest, DestructorCheckpointsDirtyIndex) {
  const std::string path = testing::TempDir() + "/close_checkpoint_idx";
  std::remove(path.c_str());
  {
    auto index =
        IntervalIndex::CreateOnDisk(IndexKind::kRTree, path, IndexOptions())
            .value();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(index->Insert(Rect(i, i + 1, 0, 1), i + 1).ok());
    }
    // No Commit(): the destructor must issue the final checkpoint.
  }
  auto reopened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 50u);
  std::vector<TupleId> tids;
  ASSERT_TRUE(
      (*reopened)->SearchTuples(Rect(-1e9, 1e9, -1e9, 1e9), &tids).ok());
  EXPECT_EQ(tids.size(), 50u);
  std::remove(path.c_str());
}

TEST(CloseTest, CloseIsIdempotentAndSkipsCleanIndexes) {
  auto index =
      IntervalIndex::CreateInMemory(IndexKind::kRTree, IndexOptions()).value();
  ASSERT_TRUE(index->Insert(Rect(0, 1, 0, 1), 1).ok());
  ASSERT_TRUE(index->Commit().ok());
  const uint64_t checkpoints = index->storage_stats().checkpoints;
  // Not dirty since the commit: Close() must not checkpoint again.
  EXPECT_TRUE(index->Close().ok());
  EXPECT_TRUE(index->Close().ok());
  EXPECT_EQ(index->storage_stats().checkpoints, checkpoints);
}

TEST(CloseTest, CloseDrainsGroupCommitQueueFromConcurrentWriters) {
  // Writers racing Insert+Commit right up to shutdown: Close() must queue
  // behind the in-flight commit batches and then checkpoint whatever is
  // still dirty, so no acknowledged write is lost on a clean shutdown.
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  auto index = IntervalIndex::CreateWithDevice(IndexKind::kRTree,
                                               std::move(device),
                                               IndexOptions())
                   .value();

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 300;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const double x = w * 1000.0 + i;
        const TupleId tid = static_cast<TupleId>(1 + w * kPerWriter + i);
        if (!index->Insert(Rect(x, x + 1, 0, 1), tid).ok()) {
          failed.store(true);
          return;
        }
        // Half the writers commit on a cadence; the others leave their
        // tail dirty so Close() has real work to drain AND checkpoint.
        if (w % 2 == 0 && i % 64 == 0 && !index->Commit().ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(index->Close().ok());

  auto reopened = IntervalIndex::OpenFromDevice(
      std::make_unique<MemoryBlockDevice>(raw->Snapshot()), IndexOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(),
            static_cast<uint64_t>(kWriters * kPerWriter));
  std::vector<TupleId> tids;
  ASSERT_TRUE(
      (*reopened)->SearchTuples(Rect(-1e9, 1e9, -1e9, 1e9), &tids).ok());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kWriters * kPerWriter));
}

// --- Torture sweep ----------------------------------------------------------

void RunSweep(torture::TortureOptions options) {
  options.records = 80;
  options.checkpoint_every = 10;
  options.max_fault_points = 150;
  options.index.pager.buffer_pool_bytes = 16 * 1024;
  auto report = torture::RunRecoveryTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->fault_points_run, 0u);
  for (const std::string& failure : report->failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(TortureTest, EveryCrashPointRecovers) {
  torture::TortureOptions options;
  options.kind = IndexKind::kSRTree;
  RunSweep(options);
}

TEST(TortureTest, EveryTornWriteCrashPointRecovers) {
  torture::TortureOptions options;
  options.kind = IndexKind::kSRTree;
  options.tear_bytes = 256;
  RunSweep(options);
}

TEST(TortureTest, RTreeCrashPointsRecover) {
  torture::TortureOptions options;
  options.kind = IndexKind::kRTree;
  options.tear_bytes = 100;
  RunSweep(options);
}

// The scrub sweep at its default seed, through rounds 12 and 13: there a
// corrupted leaf lies inside a larger extent whose bytes happen to pass the
// 16-bit node checksum as an empty leaf. Salvage must not trust that match
// and skip the live leaves behind it.
TEST(TortureTest, ScrubSweepSalvagesPastFalseChecksumMatches) {
  torture::ScrubTortureOptions options;
  options.seed = 4321;
  options.records = 400;
  options.rounds = 14;
  auto report = torture::RunScrubTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rounds_run, 14u);
  for (const std::string& failure : report->failures) {
    ADD_FAILURE() << failure;
  }
}

}  // namespace
}  // namespace segidx
