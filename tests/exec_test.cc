// exec::WorkerPool and parallel read-path (IntervalIndex::SearchBatch)
// tests. The Concurrent* tests are the ones the ThreadSanitizer CI job is
// aimed at: they overlap many searches on one tree through a deliberately
// tiny buffer pool, so pager latching, eviction write-back, and stats
// counters all run under contention.

#include "exec/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval_index.h"
#include "workload/datasets.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;

// A small I1-style workload: 2000 interval records over the paper domain.
std::vector<Rect> TestRects() {
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI1;
  spec.count = 2000;
  spec.seed = 7;
  return workload::GenerateDataset(spec);
}

std::unique_ptr<IntervalIndex> BuildIndex(IndexKind kind,
                                          const IndexOptions& options) {
  auto created = IntervalIndex::CreateInMemory(kind, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();
  const std::vector<Rect> rects = TestRects();
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_TRUE(index->Insert(rects[i], static_cast<TupleId>(i)).ok());
  }
  return index;
}

std::vector<Rect> TestQueries(int count) {
  return workload::GenerateQueries(/*qar=*/1.0, /*area=*/1e6, count,
                                   /*seed=*/11);
}

// Runs `n` indexes through `pool` and returns how often each one ran.
std::vector<int> RunCounts(exec::WorkerPool* pool, size_t n,
                           size_t stop_at = SIZE_MAX) {
  std::vector<std::atomic<int>> counts(n);
  pool->Run(n, [&](size_t i) {
    counts[i].fetch_add(1);
    return i != stop_at;
  });
  std::vector<int> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = counts[i].load();
  return out;
}

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  const size_t sizes[] = {0, 1, 7, 1000};
  // 0 threads is clamped to one worker.
  for (int threads : {0, 1, 2, 4, 8}) {
    exec::WorkerPool pool(threads);
    EXPECT_EQ(pool.num_threads(), std::max(threads, 1));
    for (size_t n : sizes) {
      EXPECT_EQ(RunCounts(&pool, n), std::vector<int>(n, 1))
          << "n=" << n << " at " << threads << " threads";
    }
  }
}

TEST(WorkerPoolTest, SingleThreadStopsRightAfterFalse) {
  exec::WorkerPool pool(1);
  const std::vector<int> counts = RunCounts(&pool, 10, /*stop_at=*/3);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], i <= 3 ? 1 : 0) << "index " << i;
  }
}

TEST(WorkerPoolTest, StopLeavesLaterIndexesUnclaimed) {
  exec::WorkerPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  // Index 0 is the first claim and stops the run at once; every other
  // body takes a millisecond, so the other workers can claim only a few
  // indexes before they see the stop.
  pool.Run(kN, [&](size_t i) {
    counts[i].fetch_add(1);
    if (i == 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return true;
  });
  EXPECT_EQ(counts[0].load(), 1);
  size_t ran = 0;
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_LE(counts[i].load(), 1) << "index " << i;
    ran += static_cast<size_t>(counts[i].load());
  }
  EXPECT_LT(ran, kN);
}

TEST(WorkerPoolTest, ServesConsecutiveRuns) {
  exec::WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(round) * 3;
    // A stopped run must not leak its stop into the next one.
    EXPECT_EQ(RunCounts(&pool, n), std::vector<int>(n, 1))
        << "round " << round;
    RunCounts(&pool, 100, /*stop_at=*/0);
  }
}

bool SameHits(const std::vector<rtree::SearchHit>& a,
              const std::vector<rtree::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tid != b[i].tid || !(a[i].rect == b[i].rect)) return false;
  }
  return true;
}

TEST(QueryEngineTest, BatchMatchesSerialSearch) {
  auto index = BuildIndex(IndexKind::kRTree, IndexOptions());
  const std::vector<Rect> queries = TestQueries(64);

  std::vector<std::vector<rtree::SearchHit>> serial(queries.size());
  std::vector<uint64_t> serial_accesses(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index->tree()
                    ->Search(queries[i], &serial[i], &serial_accesses[i])
                    .ok());
  }

  for (int threads : {1, 2, 4, 8}) {
    std::vector<core::BatchResult> results;
    ASSERT_TRUE(index->SearchBatch(queries, &results, threads).ok());
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(SameHits(results[i].hits, serial[i]))
          << "query " << i << " at " << threads << " threads";
      EXPECT_EQ(results[i].nodes_accessed, serial_accesses[i]);
    }
  }
}

TEST(QueryEngineTest, EmptyBatchSucceeds) {
  auto index = BuildIndex(IndexKind::kRTree, IndexOptions());
  std::vector<core::BatchResult> results = {core::BatchResult{}};
  ASSERT_TRUE(index->SearchBatch({}, &results, 2).ok());
  EXPECT_TRUE(results.empty());
}

TEST(QueryEngineTest, InvalidQuerySurfacesFirstError) {
  auto index = BuildIndex(IndexKind::kRTree, IndexOptions());
  std::vector<Rect> queries = TestQueries(8);
  queries[3] = Rect(10, 0, 10, 0);  // Inverted: invalid.
  std::vector<core::BatchResult> results;
  const Status st = index->SearchBatch(queries, &results, 4);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, EngineReusableAcrossBatches) {
  auto index = BuildIndex(IndexKind::kRTree, IndexOptions());
  const std::vector<Rect> queries = TestQueries(16);
  std::vector<core::BatchResult> first, second;
  ASSERT_TRUE(index->SearchBatch(queries, &first, 2).ok());
  ASSERT_TRUE(index->SearchBatch(queries, &second, 2).ok());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(SameHits(first[i].hits, second[i].hits));
  }
}

TEST(QueryEngineTest, BatchAutoFinalizesBufferingSkeleton) {
  IndexOptions options;
  options.skeleton.expected_tuples = 2000;
  // A sample target above the insert count keeps the index buffering, so
  // the batch itself must trigger finalization.
  options.skeleton.prediction_sample = 5000;
  auto index = BuildIndex(IndexKind::kSkeletonRTree, options);
  ASSERT_TRUE(index->skeleton_building());
  const std::vector<Rect> queries = TestQueries(16);
  std::vector<core::BatchResult> results;
  ASSERT_TRUE(index->SearchBatch(queries, &results, 2).ok());
  EXPECT_FALSE(index->skeleton_building());
  // And it agrees with serial search on the finalized tree.
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<rtree::SearchHit> serial;
    ASSERT_TRUE(index->tree()->Search(queries[i], &serial).ok());
    EXPECT_TRUE(SameHits(results[i].hits, serial));
  }
}

// Many threads, one tree, tiny buffer pool: every fetch contends on the
// pager partitions and evictions run continuously. TSan target.
TEST(ConcurrentSearchTest, SearchesRaceFreeUnderTinyPool) {
  IndexOptions options;
  options.pager.buffer_pool_bytes = 16 * 1024;
  options.pager.lru_partitions = 4;
  auto index = BuildIndex(IndexKind::kSRTree, options);
  const std::vector<Rect> queries = TestQueries(32);

  std::vector<std::vector<rtree::SearchHit>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index->tree()->Search(queries[i], &serial[i]).ok());
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + static_cast<size_t>(t) * 5) % queries.size();
        std::vector<rtree::SearchHit> hits;
        uint64_t accesses = 0;
        if (!index->tree()->Search(queries[q], &hits, &accesses).ok() ||
            accesses == 0 || !SameHits(hits, serial[q])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Shared stats kept exact under concurrency (one bump per search, plus
  // the serial baseline's own searches).
  EXPECT_EQ(index->tree_stats().searches,
            static_cast<uint64_t>(kThreads + 1) * queries.size());
  EXPECT_EQ(index->pager()->pinned_frames(), 0u);
}

TEST(ConcurrentSearchTest, BatchesOnSkeletonSRTreeMatchSerial) {
  IndexOptions options;
  options.pager.buffer_pool_bytes = 32 * 1024;
  options.skeleton.expected_tuples = 2000;
  auto index = BuildIndex(IndexKind::kSkeletonSRTree, options);
  ASSERT_TRUE(index->Finalize().ok());
  const std::vector<Rect> queries = TestQueries(48);

  std::vector<std::vector<rtree::SearchHit>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index->tree()->Search(queries[i], &serial[i]).ok());
  }
  std::vector<core::BatchResult> results;
  ASSERT_TRUE(index->SearchBatch(queries, &results, 8).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameHits(results[i].hits, serial[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace segidx
