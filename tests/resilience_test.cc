// Runtime-resilience acceptance suite (ISSUE 5).
//
// Covers the whole stack end to end: query deadlines and cooperative
// cancellation at node-fetch granularity, per-page quarantine with partial
// results over a corrupted interior node, the deterministic SearchBatch
// error contract under a fault-injected mid-batch read error, online scrub
// (exact damage reporting, cancellation), and the salvage/rebuild path.
//
// The corruption tests damage the *image* between close and reopen. Note
// the baseline builder ends with two back-to-back flushes: journal replay
// rewrites every page image recorded in the newest checkpoint's journal
// back to the device on open, silently healing any corruption under it, so
// the final checkpoint must be empty for injected damage to stay visible.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval_index.h"
#include "core/salvage.h"
#include "storage/block_device.h"
#include "storage/fault_injection.h"
#include "storage/pager.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;
using storage::FaultInjectingBlockDevice;
using storage::MemoryBlockDevice;
using storage::PageId;

const Rect kEverything(Interval(-1e12, 1e12), Interval(-1e12, 1e12));

std::vector<std::pair<Rect, TupleId>> MakeRecords(uint64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 1000.0);
  std::uniform_real_distribution<double> length(0.5, 40.0);
  std::uniform_real_distribution<double> ypos(0.0, 1000.0);
  std::vector<std::pair<Rect, TupleId>> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double s = start(rng);
    records.emplace_back(
        Rect(Interval(s, s + length(rng)), Interval::Point(ypos(rng))),
        static_cast<TupleId>(i + 1));
  }
  return records;
}

// Builds an SR-Tree, closes it, and returns the device image. The final
// empty checkpoint keeps every node extent out of the journal replay
// window (see file comment).
std::vector<uint8_t> BuildImage(const std::vector<std::pair<Rect, TupleId>>&
                                    records) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* dev = device.get();
  auto created = IntervalIndex::CreateWithDevice(
      IndexKind::kSRTree, std::move(device), IndexOptions());
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  IntervalIndex* index = created.value().get();
  for (const auto& [rect, tid] : records) {
    EXPECT_TRUE(index->Insert(rect, tid).ok());
  }
  EXPECT_TRUE(index->Commit().ok());
  EXPECT_TRUE(index->Commit().ok());
  EXPECT_TRUE(index->Close().ok());
  return dev->Snapshot();
}

std::unique_ptr<IntervalIndex> OpenImage(const std::vector<uint8_t>& image) {
  auto opened = IntervalIndex::OpenFromDevice(
      std::make_unique<MemoryBlockDevice>(image), IndexOptions());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

struct NodeInfo {
  PageId id;
  int parent = -1;
  std::vector<size_t> children;
  std::vector<TupleId> piece_tids;
};

// Flattens the reachable tree (index 0 = root).
std::vector<NodeInfo> MapTree(IntervalIndex* index) {
  std::vector<NodeInfo> nodes;
  std::vector<std::pair<PageId, int>> stack{{index->tree()->root(), -1}};
  while (!stack.empty()) {
    const auto [id, parent] = stack.back();
    stack.pop_back();
    const size_t me = nodes.size();
    nodes.push_back({id, parent, {}, {}});
    if (parent >= 0) nodes[parent].children.push_back(me);
    auto node = index->tree()->ReadNode(id);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (!node.ok()) continue;
    if (node->is_leaf()) {
      for (const rtree::LeafEntry& e : node->records) {
        nodes[me].piece_tids.push_back(e.tid);
      }
      continue;
    }
    for (const rtree::SpanningEntry& s : node->spanning) {
      nodes[me].piece_tids.push_back(s.tid);
    }
    for (const rtree::BranchEntry& b : node->branches) {
      stack.push_back({b.child, static_cast<int>(me)});
    }
  }
  return nodes;
}

void CorruptExtent(std::vector<uint8_t>* image, PageId id,
                   uint32_t base_block_size = 1024) {
  const uint64_t offset = uint64_t{id.block} * base_block_size;
  const uint64_t extent = uint64_t{base_block_size} << id.size_class;
  ASSERT_LE(offset + extent, image->size());
  for (uint64_t i = 0; i < std::min<uint64_t>(256, extent); ++i) {
    (*image)[offset + i] ^= 0xa5;
  }
}

std::vector<TupleId> SortedTids(const std::vector<rtree::SearchHit>& hits) {
  std::vector<TupleId> tids;
  tids.reserve(hits.size());
  for (const rtree::SearchHit& h : hits) tids.push_back(h.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

// --- deadlines & cancellation ---------------------------------------------

TEST(ResilienceTest, ExpiredDeadlineTouchesNoNodes) {
  const auto records = MakeRecords(2000, 7);
  auto index = OpenImage(BuildImage(records));

  rtree::SearchOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  std::vector<rtree::SearchHit> hits;
  rtree::SearchOutcome outcome;
  const Status status = index->Search(kEverything, options, &hits, &outcome);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_EQ(outcome.nodes_accessed, 0u);
  EXPECT_TRUE(hits.empty());

  // A sane future deadline leaves the search untouched.
  options.deadline = std::chrono::steady_clock::now() +
                     std::chrono::minutes(5);
  hits.clear();
  EXPECT_TRUE(index->Search(kEverything, options, &hits, &outcome).ok());
  EXPECT_EQ(SortedTids(hits).size(), records.size());
}

TEST(ResilienceTest, FiredCancelTokenAbortsSearch) {
  auto index = OpenImage(BuildImage(MakeRecords(500, 11)));

  std::atomic<bool> cancel{true};
  rtree::SearchOptions options;
  options.cancel_token = &cancel;
  std::vector<rtree::SearchHit> hits;
  rtree::SearchOutcome outcome;
  const Status status = index->Search(kEverything, options, &hits, &outcome);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(outcome.nodes_accessed, 0u);

  cancel.store(false);
  hits.clear();
  EXPECT_TRUE(index->Search(kEverything, options, &hits, &outcome).ok());
  EXPECT_GT(outcome.nodes_accessed, 0u);
}

TEST(ResilienceTest, BatchWithExpiredDeadlineFailsEveryEntryCheaply) {
  const auto records = MakeRecords(800, 13);
  const std::vector<uint8_t> image = BuildImage(records);
  auto index = OpenImage(image);

  rtree::SearchOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const std::vector<Rect> queries(6, kEverything);
  std::vector<core::BatchResult> results;
  const Status status = index->SearchBatch(queries, options, &results, 2);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  ASSERT_EQ(results.size(), queries.size());
  // Deadline expiry is per-query, not batch-fatal: every entry is still
  // claimed and fails its own first deadline check without touching a node.
  for (const core::BatchResult& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << r.status.ToString();
    EXPECT_EQ(r.nodes_accessed, 0u);
  }

  // A deadline that runs out partway through a batch whose fetches miss a
  // tiny pool and read the device: each entry ends OK with its full result
  // or kDeadlineExceeded, the batch reports no other error, and expiring
  // searches quarantine nothing. Where the deadline falls depends on
  // timing; the contract does not.
  IndexOptions small_pool;
  small_pool.pager.buffer_pool_bytes = 16 * 1024;
  auto opened = IntervalIndex::OpenFromDevice(
      std::make_unique<MemoryBlockDevice>(image), small_pool);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IntervalIndex* cold = opened->get();
  const std::vector<Rect> scans(64, kEverything);
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  const Status batch = cold->SearchBatch(scans, options, &results, 2);
  EXPECT_TRUE(batch.ok() || batch.code() == StatusCode::kDeadlineExceeded)
      << batch.ToString();
  ASSERT_EQ(results.size(), scans.size());
  for (const core::BatchResult& r : results) {
    if (r.status.ok()) {
      EXPECT_EQ(SortedTids(r.hits).size(), records.size());
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
          << r.status.ToString();
    }
  }
  EXPECT_EQ(cold->pager()->quarantined_count(), 0u);
  EXPECT_FALSE(cold->pager()->degraded());
}

// --- per-page quarantine, partial results, scrub, salvage -----------------

TEST(ResilienceTest, CorruptInteriorNodePartialSearchScrubAndSalvage) {
  const auto records = MakeRecords(2000, 42);
  std::vector<uint8_t> image = BuildImage(records);

  // Map the pristine tree and pick an interior (non-root, non-leaf) node.
  std::vector<NodeInfo> nodes;
  {
    auto pristine = OpenImage(image);
    nodes = MapTree(pristine.get());
  }
  int victim = -1;
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (!nodes[i].children.empty()) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0) << "tree too shallow: no interior non-root node";
  const PageId damaged = nodes[victim].id;

  // Records with every piece inside the damaged subtree are unreachable by
  // a partial search; everything else must still be returned.
  std::unordered_map<TupleId, uint64_t> total_pieces;
  for (const NodeInfo& n : nodes) {
    for (TupleId t : n.piece_tids) ++total_pieces[t];
  }
  std::unordered_map<TupleId, uint64_t> subtree_pieces;
  std::vector<size_t> stack{static_cast<size_t>(victim)};
  while (!stack.empty()) {
    const size_t n = stack.back();
    stack.pop_back();
    for (TupleId t : nodes[n].piece_tids) ++subtree_pieces[t];
    stack.insert(stack.end(), nodes[n].children.begin(),
                 nodes[n].children.end());
  }
  std::vector<TupleId> expect_search;
  for (const auto& [tid, count] : total_pieces) {
    const auto it = subtree_pieces.find(tid);
    if (it == subtree_pieces.end() || it->second < count) {
      expect_search.push_back(tid);
    }
  }
  std::sort(expect_search.begin(), expect_search.end());
  ASSERT_LT(expect_search.size(), records.size())
      << "damaged subtree holds no exclusive records; pick a bigger tree";

  CorruptExtent(&image, damaged);
  auto index = OpenImage(image);  // Damage must not block open.

  // An unqualified search refuses to silently drop results.
  std::vector<rtree::SearchHit> hits;
  const Status strict = index->Search(kEverything, &hits, nullptr);
  EXPECT_EQ(strict.code(), StatusCode::kCorruption) << strict.ToString();
  EXPECT_EQ(index->pager()->quarantined_count(), 0u)
      << "a failing strict search must not quarantine";

  // A partial search skips exactly the damaged subtree and returns exactly
  // the records with a piece outside it.
  rtree::SearchOptions partial;
  partial.allow_partial = true;
  hits.clear();
  rtree::SearchOutcome outcome;
  ASSERT_TRUE(index->Search(kEverything, partial, &hits, &outcome).ok());
  EXPECT_TRUE(outcome.partial);
  ASSERT_EQ(outcome.skipped_subtrees.size(), 1u);
  EXPECT_EQ(outcome.skipped_subtrees[0], damaged);
  EXPECT_EQ(SortedTids(hits), expect_search);

  // The damage is now quarantined; the pager must NOT be device-degraded
  // (that mode is reserved for hard write errors).
  EXPECT_EQ(index->pager()->quarantined_count(), 1u);
  EXPECT_TRUE(index->pager()->IsQuarantined(damaged.block));
  EXPECT_FALSE(index->pager()->degraded());

  // Batch results are bit-identical to serial execution of each query.
  std::vector<Rect> queries;
  queries.push_back(kEverything);
  for (size_t i = 0; i < 6; ++i) {
    const Rect& r = records[i * 97].first;
    queries.push_back(Rect(Interval(r.x.lo - 1.0, r.x.hi + 1.0),
                           Interval(r.y.lo - 1.0, r.y.hi + 1.0)));
  }
  std::vector<std::vector<rtree::SearchHit>> serial(queries.size());
  std::vector<rtree::SearchOutcome> serial_outcomes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index
                    ->Search(queries[i], partial, &serial[i],
                             &serial_outcomes[i])
                    .ok());
  }
  std::vector<core::BatchResult> batch;
  ASSERT_TRUE(index->SearchBatch(queries, partial, &batch, 2).ok());
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    EXPECT_EQ(batch[i].partial, serial_outcomes[i].partial);
    ASSERT_EQ(batch[i].hits.size(), serial[i].size()) << "query " << i;
    for (size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(batch[i].hits[j].tid, serial[i][j].tid);
      EXPECT_EQ(batch[i].hits[j].rect, serial[i][j].rect);
    }
  }

  // Scrub reports exactly the damaged extent and nothing else.
  auto scrub = index->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_TRUE(scrub->completed);
  ASSERT_EQ(scrub->defects.size(), 1u) << scrub->ToString();
  EXPECT_EQ(scrub->defects[0].page, damaged);

  // Salvage rebuilds a structurally sound index holding every record with
  // a piece outside the damaged extent itself (children of the damaged
  // interior node are intact on disk, so salvage beats the partial search).
  std::unordered_set<TupleId> damaged_extent_tids(
      nodes[victim].piece_tids.begin(), nodes[victim].piece_tids.end());
  std::vector<TupleId> expect_salvage;
  for (const auto& [tid, count] : total_pieces) {
    const uint64_t on_extent = damaged_extent_tids.count(tid)
                                   ? std::count(nodes[victim].piece_tids.begin(),
                                                nodes[victim].piece_tids.end(),
                                                tid)
                                   : 0;
    if (on_extent < count) expect_salvage.push_back(tid);
  }
  std::sort(expect_salvage.begin(), expect_salvage.end());

  const MemoryBlockDevice damaged_dev(image);
  core::SalvageOptions salvage_options;
  core::SalvageReport report;
  auto rebuilt = core::SalvageToDevice(damaged_dev,
                                       std::make_unique<MemoryBlockDevice>(),
                                       salvage_options, &report);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE((*rebuilt)->CheckInvariants().ok());
  std::vector<TupleId> recovered;
  ASSERT_TRUE((*rebuilt)->SearchTuples(kEverything, &recovered).ok());
  std::sort(recovered.begin(), recovered.end());
  // Every expected record is back. Stale pre-checkpoint copies may
  // resurrect a few extras, so this is a superset check on the floor.
  EXPECT_TRUE(std::includes(recovered.begin(), recovered.end(),
                            expect_salvage.begin(), expect_salvage.end()))
      << "salvage lost records: expected >= " << expect_salvage.size()
      << ", got " << recovered.size();
  EXPECT_GT(expect_salvage.size(), expect_search.size());
}

// --- deterministic batch error contract -----------------------------------

TEST(ResilienceTest, BatchMidBatchReadErrorContract) {
  const auto records = MakeRecords(600, 17);
  const std::vector<uint8_t> image = BuildImage(records);

  auto device = std::make_unique<FaultInjectingBlockDevice>(
      std::make_unique<MemoryBlockDevice>(image));
  FaultInjectingBlockDevice* dev = device.get();
  auto opened =
      IntervalIndex::OpenFromDevice(std::move(device), IndexOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IntervalIndex* index = opened.value().get();

  // Warm the cache for two narrow queries, then make every further
  // physical read fail. With one worker the batch executes in query
  // order: q0/q1 run entirely from cache, q2 (full space) needs uncached
  // leaves and hits the injected EIO, q3/q4 are never claimed.
  const Rect narrow0(Interval(records[0].first.x.lo, records[0].first.x.hi),
                     records[0].first.y);
  const Rect narrow1(Interval(records[1].first.x.lo, records[1].first.x.hi),
                     records[1].first.y);
  std::vector<rtree::SearchHit> warm;
  ASSERT_TRUE(index->Search(narrow0, &warm, nullptr).ok());
  ASSERT_TRUE(index->Search(narrow1, &warm, nullptr).ok());
  dev->FailNthRead(0, /*sticky=*/true);

  const std::vector<Rect> queries{narrow0, narrow1, kEverything, narrow0,
                                  narrow1};
  std::vector<core::BatchResult> results;
  const Status status =
      index->SearchBatch(queries, rtree::SearchOptions(), &results, 1);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.ToString();
  EXPECT_EQ(results[2].status.code(), StatusCode::kIoError);
  EXPECT_EQ(results[3].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(results[4].status.code(), StatusCode::kCancelled);

  // Transient device errors must not quarantine pages or degrade the
  // pager: retrying after the fault clears succeeds.
  EXPECT_EQ(index->pager()->quarantined_count(), 0u);
  EXPECT_FALSE(index->pager()->degraded());
  dev->ClearFaults();
  std::vector<core::BatchResult> retry;
  ASSERT_TRUE(
      index->SearchBatch(queries, rtree::SearchOptions(), &retry, 1).ok());
  for (const core::BatchResult& r : retry) EXPECT_TRUE(r.status.ok());
}

TEST(ResilienceTest, FlakyReadsSkipSubtreesWithoutQuarantine) {
  const std::vector<uint8_t> image = BuildImage(MakeRecords(800, 23));
  auto device = std::make_unique<FaultInjectingBlockDevice>(
      std::make_unique<MemoryBlockDevice>(image));
  FaultInjectingBlockDevice* dev = device.get();
  auto opened =
      IntervalIndex::OpenFromDevice(std::move(device), IndexOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IntervalIndex* index = opened.value().get();

  dev->FailEveryKthRead(3);
  rtree::SearchOptions partial;
  partial.allow_partial = true;
  std::vector<rtree::SearchHit> hits;
  rtree::SearchOutcome outcome;
  ASSERT_TRUE(index->Search(kEverything, partial, &hits, &outcome).ok());
  // Whatever subtrees the flaky device dropped, transient EIO never
  // quarantines a page and never degrades the device.
  EXPECT_EQ(index->pager()->quarantined_count(), 0u);
  EXPECT_FALSE(index->pager()->degraded());

  dev->ClearFaults();
  hits.clear();
  ASSERT_TRUE(index->Search(kEverything, partial, &hits, &outcome).ok());
  EXPECT_FALSE(outcome.partial);
}

// --- scrub controls -------------------------------------------------------

TEST(ResilienceTest, ScrubHonorsCancelToken) {
  auto index = OpenImage(BuildImage(MakeRecords(500, 31)));

  std::atomic<bool> cancel{true};
  storage::ScrubOptions options;
  options.cancel_token = &cancel;
  auto report = index->Scrub(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->completed);

  cancel.store(false);
  report = index->Scrub(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_GT(report->reachable_extents, 0u);
}

TEST(ResilienceTest, ScrubRateLimitStillCompletes) {
  auto index = OpenImage(BuildImage(MakeRecords(300, 37)));
  storage::ScrubOptions options;
  options.max_extents_per_second = 1'000'000;  // Fast but exercises pacing.
  auto report = index->Scrub(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// --- disk full (ENOSPC) ---------------------------------------------------

// Device level: a full disk rejects writes, syncs, and truncates with
// kResourceExhausted — distinct from EIO — while reads keep working and
// clearing the fault restores writes.
TEST(ResilienceTest, DiskFullDeviceReturnsResourceExhausted) {
  FaultInjectingBlockDevice dev(std::make_unique<MemoryBlockDevice>());
  const uint8_t data[16] = {1, 2, 3};
  ASSERT_TRUE(dev.Write(0, data, sizeof(data)).ok());

  dev.SetDiskFull(true);
  EXPECT_EQ(dev.Write(16, data, sizeof(data)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(dev.Sync().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(dev.Truncate(4096).code(), StatusCode::kResourceExhausted);
  uint8_t out[16] = {};
  EXPECT_TRUE(dev.Read(0, sizeof(out), out).ok());  // Data intact.
  EXPECT_EQ(out[0], 1);

  dev.SetDiskFull(false);
  EXPECT_TRUE(dev.Write(16, data, sizeof(data)).ok());
}

// Index level: a checkpoint that hits ENOSPC fails kResourceExhausted and
// flips the pager into read-only degraded mode — searches keep serving
// the last durable state plus the in-memory tail, further mutations are
// refused kUnavailable, and nothing already on the device is damaged.
TEST(ResilienceTest, DiskFullDegradesToReadOnlyButKeepsServing) {
  auto device = std::make_unique<FaultInjectingBlockDevice>(
      std::make_unique<MemoryBlockDevice>());
  FaultInjectingBlockDevice* dev = device.get();
  auto created = IntervalIndex::CreateWithDevice(
      IndexKind::kRTree, std::move(device), IndexOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();

  const auto records = MakeRecords(300, 11);
  for (const auto& [rect, tid] : records) {
    ASSERT_TRUE(index->Insert(rect, tid).ok());
  }
  ASSERT_TRUE(index->Commit().ok());

  // The disk fills; the next checkpoint cannot land.
  dev->SetDiskFull(true);
  ASSERT_TRUE(
      index->Insert(Rect(Interval(1, 2), Interval::Point(3)), 9001).ok());
  const Status full = index->Commit();
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted) << full.ToString();
  EXPECT_EQ(index->storage_stats().degraded, 1u);

  // Degraded, not dead: reads serve everything applied so far...
  std::vector<TupleId> tids;
  ASSERT_TRUE(index->SearchTuples(kEverything, &tids).ok());
  EXPECT_EQ(tids.size(), records.size() + 1);

  // ...while durability operations are refused as unavailable (degraded
  // mode is sticky even after space frees up: the pager cannot know what
  // the failed checkpoint left behind).
  dev->SetDiskFull(false);
  EXPECT_EQ(index->Commit().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace segidx
