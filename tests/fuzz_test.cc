// Randomized mixed-operation fuzzing: long interleaved sequences of
// inserts (points, segments, rectangles, degenerate shapes, extreme
// coordinates), searches, deletions (plain R-Tree), flushes, and
// coalescing passes, cross-checked against the naive oracle with periodic
// full invariant validation. Seeds are fixed: failures reproduce exactly.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/interval_index.h"
#include "oracle/naive_oracle.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;
using oracle::NaiveOracle;

Rect RandomShape(Rng& rng) {
  const double roll = rng.NextDouble();
  const Coord x = rng.Uniform(-1000, 101000);  // Outside the skeleton
  const Coord y = rng.Uniform(-1000, 101000);  // domain on purpose.
  if (roll < 0.25) return Rect::Point(x, y);
  if (roll < 0.5) {
    return Rect::Segment1D(x, x + rng.Exponential(8000, 120000), y);
  }
  if (roll < 0.55) {
    // Extreme: domain-crossing monsters.
    return Rect(-5000, 105000, y, y + rng.Uniform(0, 50));
  }
  return Rect(x, x + rng.Exponential(3000, 60000), y,
              y + rng.Exponential(3000, 60000));
}

Rect RandomQuery(Rng& rng) {
  const double roll = rng.NextDouble();
  const Coord x = rng.Uniform(0, 100000);
  const Coord y = rng.Uniform(0, 100000);
  if (roll < 0.3) return Rect::Point(x, y);
  if (roll < 0.6) {
    return Rect(x, x + rng.Uniform(0, 3000), y, y + rng.Uniform(0, 3000));
  }
  if (roll < 0.8) return Rect(x, x + 10, -1e6, 1e6);  // Vertical stripe.
  return Rect(-1e6, 1e6, y, y + 10);                  // Horizontal stripe.
}

class FuzzTest : public testing::TestWithParam<std::tuple<IndexKind, int>> {
};

TEST_P(FuzzTest, MixedOperationsAgainstOracle) {
  const IndexKind kind = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed) * 1000003);

  IndexOptions options;
  options.skeleton.expected_tuples = 3000;
  options.skeleton.prediction_sample = 200;
  options.skeleton.coalesce_interval = 300;
  auto index = IntervalIndex::CreateInMemory(kind, options).value();
  NaiveOracle oracle;

  std::vector<std::pair<Rect, TupleId>> live;
  TupleId next_tid = 0;
  const bool can_delete = kind == IndexKind::kRTree;

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.70 || live.empty()) {
      const Rect r = RandomShape(rng);
      ASSERT_TRUE(index->Insert(r, next_tid).ok()) << step;
      oracle.Insert(r, next_tid);
      live.emplace_back(r, next_tid);
      ++next_tid;
    } else if (roll < 0.78 && can_delete) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(index->Delete(live[pick].first, live[pick].second).ok())
          << step;
      ASSERT_TRUE(oracle.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      const Rect q = RandomQuery(rng);
      std::vector<TupleId> tids;
      ASSERT_TRUE(index->SearchTuples(q, &tids).ok()) << step;
      std::sort(tids.begin(), tids.end());
      ASSERT_EQ(tids, oracle.Search(q)) << "step " << step << " query "
                                        << q.ToString();
    }
    if (step % 1000 == 999) {
      ASSERT_TRUE(index->CheckInvariants().ok()) << step;
    }
  }
  ASSERT_TRUE(index->Finalize().ok());
  ASSERT_TRUE(index->CheckInvariants().ok());
  EXPECT_EQ(index->size(), live.size());
}

std::string FuzzName(
    const testing::TestParamInfo<std::tuple<IndexKind, int>>& info) {
  std::string name = core::IndexKindName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == ' ' || c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FuzzTest,
    testing::Combine(testing::Values(IndexKind::kRTree, IndexKind::kSRTree,
                                     IndexKind::kSkeletonRTree,
                                     IndexKind::kSkeletonSRTree),
                     testing::Values(1, 2, 3)),
    FuzzName);

// File-backed fuzz with a tiny buffer pool: the same mixed workload must
// survive constant eviction and several flush/reopen cycles.
TEST(FuzzTest, FileBackedWithTinyPoolAndReopen) {
  const std::string path = testing::TempDir() + "/fuzz_file_idx";
  std::remove(path.c_str());
  Rng rng(99);
  IndexOptions options;
  options.skeleton.expected_tuples = 2000;
  options.skeleton.prediction_sample = 100;
  options.pager.buffer_pool_bytes = 16 * 1024;  // ~16 leaf pages.
  NaiveOracle oracle;
  TupleId next_tid = 0;

  auto index = IntervalIndex::CreateOnDisk(IndexKind::kSkeletonSRTree, path,
                                           options)
                   .value();
  uint64_t total_evictions = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int step = 0; step < 500; ++step) {
      const Rect r = RandomShape(rng);
      ASSERT_TRUE(index->Insert(r, next_tid).ok());
      oracle.Insert(r, next_tid);
      ++next_tid;
    }
    for (int probe = 0; probe < 50; ++probe) {
      const Rect q = RandomQuery(rng);
      std::vector<TupleId> tids;
      ASSERT_TRUE(index->SearchTuples(q, &tids).ok());
      std::sort(tids.begin(), tids.end());
      ASSERT_EQ(tids, oracle.Search(q)) << cycle << "/" << probe;
    }
    total_evictions += index->storage_stats().evictions;
    ASSERT_TRUE(index->Commit().ok());
    auto reopened = IntervalIndex::OpenFromDisk(path, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    index = std::move(reopened).value();
  }
  EXPECT_GT(total_evictions, 0u);
  ASSERT_TRUE(index->CheckInvariants().ok());
  EXPECT_EQ(index->size(), 2000u);
}

}  // namespace
}  // namespace segidx
