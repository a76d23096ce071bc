#include "storage/pager.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/block_device.h"
#include "storage/coding.h"

namespace segidx::storage {
namespace {

PagerOptions SmallPool() {
  PagerOptions options;
  options.base_block_size = 1024;
  options.buffer_pool_bytes = 8 * 1024;  // Tiny: forces eviction.
  return options;
}

std::unique_ptr<Pager> MakeMemoryPager(const PagerOptions& options) {
  auto result = Pager::Create(std::make_unique<MemoryBlockDevice>(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PageIdTest, EncodeDecodeRoundTrip) {
  PageId id;
  id.block = 12345;
  id.size_class = 3;
  const PageId back = PageId::Decode(id.Encode());
  EXPECT_EQ(back, id);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(PageId().valid());
}

TEST(PageIdTest, DecodeRejectsReservedHighBits) {
  PageId id;
  id.block = 77;
  id.size_class = 2;
  // Bits 40-63 are reserved-zero; a flip anywhere in them means the
  // pointer bytes are corrupt and must not alias a plausible PageId.
  for (int bit = 40; bit < 64; ++bit) {
    const PageId back = PageId::Decode(id.Encode() | (uint64_t{1} << bit));
    EXPECT_FALSE(back.valid()) << "accepted garbage in bit " << bit;
  }
}

TEST(PagerTest, AllocateZeroedAndWritable) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 1024u);
  for (size_t i = 0; i < page->size(); ++i) {
    ASSERT_EQ(page->data()[i], 0);
  }
  std::memset(page->data(), 0x5a, page->size());
  page->MarkDirty();
}

TEST(PagerTest, ExtentSizesDoublePerClass) {
  auto pager = MakeMemoryPager(PagerOptions());
  EXPECT_EQ(pager->ExtentBytes(0), 1024u);
  EXPECT_EQ(pager->ExtentBytes(1), 2048u);
  EXPECT_EQ(pager->ExtentBytes(4), 16384u);
  auto page = pager->Allocate(4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 16384u);
}

TEST(PagerTest, FetchReturnsWrittenBytes) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(1);
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->data()[0] = 0x11;
    page->data()[2047] = 0x22;
    page->MarkDirty();
  }
  auto fetched = pager->Fetch(id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->data()[0], 0x11);
  EXPECT_EQ(fetched->data()[2047], 0x22);
}

TEST(PagerTest, FetchOfCachedBlockUnderOtherSizeClassIsAnError) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->MarkDirty();
  }
  PageId wrong = id;
  wrong.size_class = 1;
  auto fetched = pager->Fetch(wrong);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = fetched.status().message();
  EXPECT_NE(message.find("block " + std::to_string(id.block)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("size class 1"), std::string::npos) << message;
  EXPECT_NE(message.find("size class 0"), std::string::npos) << message;
  // The cached page itself stays readable under its own id.
  EXPECT_TRUE(pager->Fetch(id).ok());
  EXPECT_EQ(pager->pinned_frames(), 0u);
}

TEST(PagerTest, EvictionWritesBackDirtyPages) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  const PagerOptions options = SmallPool();
  auto pager = Pager::Create(std::move(device), options).value();
  std::vector<PageId> ids;
  // 32 KB of pages through an 8 KB pool.
  for (int i = 0; i < 32; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<uint8_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  EXPECT_GT(pager->stats().evictions, 0u);
  for (int i = 0; i < 32; ++i) {
    auto page = pager->Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<uint8_t>(i));
  }

  // A spill takes a page off its partition's dirty list. Fetched back from
  // the spill extent and dirtied again, it is one live dirty page: the
  // next checkpoint writes it once, from the pool.
  ASSERT_TRUE(pager->Checkpoint().ok());
  {
    auto page = pager->Fetch(ids[0]);
    ASSERT_TRUE(page.ok());
    page->data()[0] = 0xa0;
    page->MarkDirty();
  }
  const uint64_t spills = pager->stats().spills;
  for (size_t i = 1; i < ids.size(); ++i) {
    ASSERT_TRUE(pager->Fetch(ids[i]).ok());
  }
  ASSERT_EQ(pager->stats().spills, spills + 1);
  {
    auto page = pager->Fetch(ids[0]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], 0xa0);
    page->data()[0] = 0xa1;
    page->MarkDirty();
  }
  const uint64_t writes = pager->stats().physical_writes;
  ASSERT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->stats().physical_writes - writes, 1u);

  auto reopened = Pager::Open(
      std::make_unique<MemoryBlockDevice>(raw->Snapshot()), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto page = (*reopened)->Fetch(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], i == 0 ? 0xa1 : static_cast<uint8_t>(i));
  }
}

TEST(PagerTest, PinnedPagesSurviveCapacityPressure) {
  auto pager = MakeMemoryPager(SmallPool());
  auto pinned = pager->Allocate(0);
  ASSERT_TRUE(pinned.ok());
  pinned->data()[7] = 0x77;
  pinned->MarkDirty();
  for (int i = 0; i < 64; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
  }
  // The pinned frame was never evicted: the pointer is still valid.
  EXPECT_EQ(pinned->data()[7], 0x77);
  EXPECT_GE(pager->pinned_frames(), 1u);
}

TEST(PagerTest, AllPinnedPoolTransientlyExceedsBudgetThenShrinks) {
  PagerOptions options = SmallPool();
  options.lru_partitions = 1;
  auto pager = MakeMemoryPager(options);
  // 16 KB of pinned frames through an 8 KB pool: nothing is evictable, so
  // the pool exceeds its budget rather than failing.
  std::vector<PageHandle> pins;
  for (int i = 0; i < 16; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    pins.push_back(std::move(page).value());
  }
  EXPECT_GT(pager->cached_bytes(), options.buffer_pool_bytes);
  EXPECT_EQ(pager->pinned_frames(), 16u);
  // Releasing the pins lets the pool shrink back within its budget.
  pins.clear();
  EXPECT_LE(pager->cached_bytes(), options.buffer_pool_bytes);
  EXPECT_EQ(pager->pinned_frames(), 0u);
}

TEST(PagerTest, EvictsLeastRecentlyUsedFirst) {
  PagerOptions options = SmallPool();  // Exactly 8 one-block frames.
  options.lru_partitions = 1;          // Global LRU for determinism.
  auto pager = MakeMemoryPager(options);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    ids.push_back(page->id());
  }
  // Touch ids[0] so ids[1] becomes the least recently used frame.
  { auto page = pager->Fetch(ids[0]); ASSERT_TRUE(page.ok()); }
  pager->ResetStats();
  { auto page = pager->Allocate(0); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().evictions, 1u);
  // The recently touched frame survived; the LRU frame did not.
  { auto page = pager->Fetch(ids[0]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().physical_reads, 0u);
  { auto page = pager->Fetch(ids[1]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().physical_reads, 1u);
}

TEST(PagerTest, ConcurrentFetchesSeeConsistentFrames) {
  auto pager = MakeMemoryPager(SmallPool());  // Evictions stay frequent.
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<uint8_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = static_cast<size_t>(t * 17 + round) % ids.size();
        auto page = pager->Fetch(ids[i]);
        if (!page.ok() || page->data()[0] != static_cast<uint8_t>(i)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pager->stats().logical_reads,
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(pager->pinned_frames(), 0u);
}

TEST(PagerTest, StatsCountHitsAndMisses) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    id = page->id();
  }
  pager->ResetStats();
  { auto page = pager->Fetch(id); }
  { auto page = pager->Fetch(id); }
  EXPECT_EQ(pager->stats().logical_reads, 2u);
  EXPECT_EQ(pager->stats().cache_hits, 2u);  // Still cached from Allocate.
  EXPECT_EQ(pager->stats().physical_reads, 0u);
}

TEST(PagerTest, FreeReusesExtents) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId first;
  {
    auto page = pager->Allocate(2);
    ASSERT_TRUE(page.ok());
    first = page->id();
  }
  ASSERT_TRUE(pager->Free(first).ok());
  auto again = pager->Allocate(2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id().block, first.block);
  // Reallocated extents come back zeroed.
  for (size_t i = 0; i < again->size(); ++i) {
    ASSERT_EQ(again->data()[i], 0);
  }
}

TEST(PagerTest, FreeDifferentClassesUseSeparateLists) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId small;
  PageId big;
  {
    auto a = pager->Allocate(0);
    auto b = pager->Allocate(3);
    small = a->id();
    big = b->id();
  }
  ASSERT_TRUE(pager->Free(small).ok());
  ASSERT_TRUE(pager->Free(big).ok());
  auto realloc_big = pager->Allocate(3);
  ASSERT_TRUE(realloc_big.ok());
  EXPECT_EQ(realloc_big->id().block, big.block);
}

TEST(PagerTest, FreePinnedPageFails) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pager->Free(page->id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PagerTest, UserMetaRoundTrip) {
  auto pager = MakeMemoryPager(PagerOptions());
  const std::string blob = "tree metadata goes here";
  ASSERT_TRUE(pager
                  ->SetUserMeta(reinterpret_cast<const uint8_t*>(blob.data()),
                                blob.size())
                  .ok());
  EXPECT_EQ(std::string(pager->user_meta().begin(), pager->user_meta().end()),
            blob);
  std::vector<uint8_t> too_big(Pager::kUserMetaCapacity + 1, 0);
  EXPECT_FALSE(pager->SetUserMeta(too_big.data(), too_big.size()).ok());
}

TEST(PagerTest, PersistsAcrossReopen) {
  const std::string path = testing::TempDir() + "/pager_persist";
  std::remove(path.c_str());
  PagerOptions options;
  PageId id;
  // One-block pages filled with 1..16; after the first checkpoint they
  // stay cached and clean.
  std::vector<PageId> more;
  constexpr size_t kRedirtied = 3;
  constexpr size_t kFreed = 5;
  {
    auto device = FileBlockDevice::Open(path, /*create=*/true).value();
    auto pager = Pager::Create(std::move(device), options).value();
    auto page = pager->Allocate(1);
    ASSERT_TRUE(page.ok());
    id = page->id();
    std::memset(page->data(), 0x3c, page->size());
    page->MarkDirty();
    page->Release();
    for (int i = 0; i < 16; ++i) {
      auto extra = pager->Allocate(0);
      ASSERT_TRUE(extra.ok());
      std::memset(extra->data(), i + 1, extra->size());
      more.push_back(extra->id());
    }
    const uint8_t meta[] = {'h', 'i'};
    ASSERT_TRUE(pager->SetUserMeta(meta, 2).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());

    // The checkpoint took every page off the dirty lists, and freeing a
    // dirty page takes it off too: of the cached pages, the next
    // checkpoint writes only the one dirtied again.
    for (const size_t i : {kRedirtied, kFreed}) {
      auto extra = pager->Fetch(more[i]);
      ASSERT_TRUE(extra.ok());
      extra->data()[0] = 0xee;
      extra->MarkDirty();
    }
    ASSERT_TRUE(pager->Free(more[kFreed]).ok());
    const uint64_t writes = pager->stats().physical_writes;
    ASSERT_TRUE(pager->Checkpoint().ok());
    EXPECT_EQ(pager->stats().physical_writes - writes, 1u);
    EXPECT_EQ(pager->cached_frames(), 16u);
  }
  {
    auto device = FileBlockDevice::Open(path, /*create=*/false).value();
    auto pager = Pager::Open(std::move(device), options).value();
    EXPECT_EQ(pager->user_meta().size(), 2u);
    EXPECT_EQ(pager->user_meta()[0], 'h');
    auto page = pager->Fetch(id);
    ASSERT_TRUE(page.ok());
    for (size_t i = 0; i < page->size(); ++i) {
      ASSERT_EQ(page->data()[i], 0x3c);
    }
    for (size_t i = 0; i < more.size(); ++i) {
      if (i == kFreed) continue;
      auto extra = pager->Fetch(more[i]);
      ASSERT_TRUE(extra.ok());
      const uint8_t fill = static_cast<uint8_t>(i + 1);
      EXPECT_EQ(extra->data()[0], i == kRedirtied ? 0xee : fill);
      EXPECT_EQ(extra->data()[1], fill);
    }
    // The freed extent is the head of the durable free list.
    auto reused = pager->Allocate(0);
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(reused->id().block, more[kFreed].block);
  }
}

TEST(PagerTest, FreeListSurvivesReopen) {
  const std::string path = testing::TempDir() + "/pager_freelist";
  std::remove(path.c_str());
  PagerOptions options;
  PageId freed;
  {
    auto pager =
        Pager::Create(FileBlockDevice::Open(path, true).value(), options)
            .value();
    {
      auto a = pager->Allocate(0);
      auto b = pager->Allocate(0);
      freed = a->id();
    }
    ASSERT_TRUE(pager->Free(freed).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto pager =
        Pager::Open(FileBlockDevice::Open(path, false).value(), options)
            .value();
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->id().block, freed.block);
  }
}

TEST(PagerTest, OpenRejectsGarbage) {
  auto device = std::make_unique<MemoryBlockDevice>();
  std::vector<uint8_t> junk(2048, 0xab);
  ASSERT_TRUE(device->Write(0, junk.data(), junk.size()).ok());
  const auto result = Pager::Open(std::move(device), PagerOptions());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(PagerTest, OpenRejectsBlockSizeMismatch) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  {
    PagerOptions options;
    options.base_block_size = 1024;
    auto pager = Pager::Create(std::move(device), options).value();
    ASSERT_TRUE(pager->Checkpoint().ok());
    // Steal the bytes into a fresh device for reopening.
    std::vector<uint8_t> bytes(raw->size());
    ASSERT_TRUE(raw->Read(0, bytes.size(), bytes.data()).ok());
    auto device2 = std::make_unique<MemoryBlockDevice>();
    ASSERT_TRUE(device2->Write(0, bytes.data(), bytes.size()).ok());
    PagerOptions mismatched;
    mismatched.base_block_size = 2048;
    const auto result = Pager::Open(std::move(device2), mismatched);
    EXPECT_FALSE(result.ok());
  }
}

TEST(PageHandleTest, MoveTransfersPin) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pager->pinned_frames(), 1u);
  PageHandle moved = std::move(page).value();
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(pager->pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pager->pinned_frames(), 0u);
  moved.Release();  // Idempotent.
}

TEST(PagerTest, FreeExtentsEnumeratesEveryFreeList) {
  auto pager = MakeMemoryPager(PagerOptions());
  EXPECT_TRUE(pager->FreeExtents()->empty());

  PageId a, b, c;
  {
    auto pa = pager->Allocate(0);
    auto pb = pager->Allocate(0);
    auto pc = pager->Allocate(2);
    a = pa->id();
    b = pb->id();
    c = pc->id();
  }
  ASSERT_TRUE(pager->Free(a).ok());
  ASSERT_TRUE(pager->Free(c).ok());
  auto free_extents = pager->FreeExtents();
  ASSERT_TRUE(free_extents.ok()) << free_extents.status().ToString();
  ASSERT_EQ(free_extents->size(), 2u);
  bool saw_a = false, saw_c = false;
  for (const PageId& id : *free_extents) {
    saw_a = saw_a || id == a;
    saw_c = saw_c || id == c;
    EXPECT_FALSE(id == b);
  }
  EXPECT_TRUE(saw_a && saw_c);
}

// Scribbles the next-link of a freed extent (its first four bytes on the
// device) and expects FreeExtents to reject the list as corrupt.
void CorruptFreeLink(uint32_t link_target) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  auto created = Pager::Create(std::move(device), PagerOptions());
  ASSERT_TRUE(created.ok());
  auto pager = std::move(created).value();

  PageId a;
  {
    auto pa = pager->Allocate(0);
    ASSERT_TRUE(pa.ok());
    a = pa->id();
  }
  ASSERT_TRUE(pager->Free(a).ok());
  // Freed extents only reach the on-device chain at the next checkpoint;
  // before that they sit in the in-memory pending list.
  ASSERT_TRUE(pager->Checkpoint().ok());
  uint8_t link[4];
  EncodeU32(link, link_target);
  ASSERT_TRUE(
      raw->Write(static_cast<uint64_t>(a.block) * 1024, link, 4).ok());

  const auto free_extents = pager->FreeExtents();
  ASSERT_FALSE(free_extents.ok());
  EXPECT_EQ(free_extents.status().code(), StatusCode::kCorruption);
}

TEST(PagerTest, FreeExtentsRejectsOutOfRangeLink) {
  CorruptFreeLink(500000);  // Past the allocation high-water mark.
}

TEST(PagerTest, FreeExtentsRejectsCyclicList) {
  CorruptFreeLink(2);  // The freed extent is block 2: a self-loop.
}

TEST(PagerTest, QuarantineBlocksFetchUntilCleared) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    id = page->id();
    std::memset(page->data(), 0x7e, page->size());
    page->MarkDirty();
  }
  ASSERT_TRUE(pager->Checkpoint().ok());

  EXPECT_TRUE(pager->QuarantinePage(id, "checksum mismatch (test)"));
  EXPECT_TRUE(pager->IsQuarantined(id.block));
  EXPECT_EQ(pager->quarantined_count(), 1u);
  // Re-quarantining the same extent is idempotent, not a second slot.
  EXPECT_TRUE(pager->QuarantinePage(id, "again"));
  EXPECT_EQ(pager->quarantined_count(), 1u);

  const auto fetch = pager->Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kCorruption);
  // Quarantine is page-scoped: the pager itself stays healthy.
  EXPECT_FALSE(pager->degraded());

  const auto listed = pager->QuarantinedPages();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].page, id);

  pager->ClearQuarantine();
  EXPECT_EQ(pager->quarantined_count(), 0u);
  auto page = pager->Fetch(id);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->data()[0], 0x7e);
}

TEST(PagerTest, QuarantineSetIsBounded) {
  auto pager = MakeMemoryPager(PagerOptions());
  for (size_t i = 0; i < Pager::kMaxQuarantinedPages; ++i) {
    PageId id;
    id.block = static_cast<uint32_t>(100 + i);
    id.size_class = 0;
    EXPECT_TRUE(pager->QuarantinePage(id, "fill"));
  }
  EXPECT_EQ(pager->quarantined_count(), Pager::kMaxQuarantinedPages);
  PageId overflow;
  overflow.block = 99999;
  overflow.size_class = 0;
  // A full set refuses new entries so a mass-corruption event cannot turn
  // every search into a silent near-empty partial result.
  EXPECT_FALSE(pager->QuarantinePage(overflow, "one too many"));
  EXPECT_FALSE(pager->IsQuarantined(overflow.block));
}

TEST(PagerTest, GroupCommitRunsFunctionAndCountsStats) {
  auto pager = MakeMemoryPager(PagerOptions());
  int calls = 0;
  EXPECT_TRUE(pager->GroupCommit([&] {
                     ++calls;
                     return Status::OK();
                   })
                  .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pager->stats().commit_requests, 1u);
  EXPECT_EQ(pager->stats().commit_batches, 1u);
}

TEST(PagerTest, GroupCommitPropagatesErrorToEveryBatchMember) {
  auto pager = MakeMemoryPager(PagerOptions());
  const Status st =
      pager->GroupCommit([] { return IoError("sync failed"); });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // A later commit starts a fresh batch and is not poisoned by history.
  EXPECT_TRUE(pager->GroupCommit([] { return Status::OK(); }).ok());
}

TEST(PagerTest, ConcurrentGroupCommitsCoalesceIntoBatches) {
  auto pager = MakeMemoryPager(PagerOptions());
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 20;
  std::atomic<int> executions{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const Status st = pager->GroupCommit([&] {
          executions.fetch_add(1);
          // Stands in for a checkpoint's fsyncs: the requests that arrive
          // meanwhile queue up for the next batch.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return Status::OK();
        });
        if (!st.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  const StorageStats& stats = pager->stats();
  EXPECT_EQ(stats.commit_requests,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  // Every batch runs the function exactly once, on behalf of everyone who
  // joined it; followers must not re-run it.
  EXPECT_EQ(stats.commit_batches, static_cast<uint64_t>(executions.load()));
  EXPECT_LE(stats.commit_batches, stats.commit_requests);
  // With 8 threads committing through a 1 ms commit, amortization must be
  // visible.
  EXPECT_LT(stats.commit_batches, stats.commit_requests);
}

// Reads a stats counter that other threads bump through relaxed atomics.
uint64_t LoadStat(const uint64_t& counter) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

TEST(PagerTest, RequestsQueuedBehindABatchShareTheNextOne) {
  auto pager = MakeMemoryPager(PagerOptions());
  std::atomic<int> executions{0};
  // The first batch holds its leader until three more requests have
  // queued behind it (bounded, so a sequencer that blocks them fails the
  // count below instead of hanging).
  const auto commit = [&]() -> Status {
    if (executions.fetch_add(1) == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (LoadStat(pager->stats().commit_requests) < 4 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return Status::OK();
  };
  std::vector<Status> results(4);
  std::vector<std::thread> threads;
  for (Status& result : results) {
    threads.emplace_back([&] { result = pager->GroupCommit(commit); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& result : results) EXPECT_TRUE(result.ok());
  EXPECT_EQ(pager->stats().commit_requests, 4u);
  // One batch for the leader, one for the three that queued behind it.
  EXPECT_EQ(pager->stats().commit_batches, 2u);
  EXPECT_EQ(executions.load(), 2);
}

}  // namespace
}  // namespace segidx::storage
