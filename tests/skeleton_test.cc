#include "skeleton/skeleton_index.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracle/naive_oracle.h"
#include "skeleton/spec_builder.h"
#include "srtree/srtree.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace segidx::skeleton {
namespace {

using oracle::NaiveOracle;
using rtree::RTree;
using rtree::SearchHit;
using rtree::TreeOptions;
using srtree::SRTree;
using test_util::CheckTree;
using test_util::MakeMemoryPager;
using test_util::Tids;

SkeletonOptions SmallOptions(uint64_t expected, uint64_t sample) {
  SkeletonOptions options;
  options.expected_tuples = expected;
  options.prediction_sample = sample;
  options.coalesce_interval = 500;
  options.coalesce_candidates = 10;
  return options;
}

TEST(PreBuildTest, MaterializesTheSpecExactly) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();

  rtree::SkeletonSpec spec;
  // 4x4 leaves, 2x2 level-1 nodes, implicit root with 4 branches.
  spec.levels.push_back(rtree::SkeletonLevel{
      {0, 25, 50, 75, 100}, {0, 25, 50, 75, 100}});
  spec.levels.push_back(rtree::SkeletonLevel{{0, 50, 100}, {0, 50, 100}});
  ASSERT_TRUE(tree->PreBuild(spec).ok());

  EXPECT_EQ(tree->height(), 3);
  auto stats = tree->CollectLevelStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)[0].nodes, 16u);
  EXPECT_EQ((*stats)[1].nodes, 4u);
  EXPECT_EQ((*stats)[2].nodes, 1u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  // Searches over the empty skeleton find nothing but are well-formed.
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(0, 100, 0, 100), &hits).ok());
  EXPECT_TRUE(hits.empty());
}

TEST(PreBuildTest, RequiresEmptyTree) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
  rtree::SkeletonSpec spec;
  spec.levels.push_back(rtree::SkeletonLevel{{0, 100}, {0, 100}});
  EXPECT_EQ(tree->PreBuild(spec).code(), StatusCode::kFailedPrecondition);
}

TEST(PreBuildTest, RejectsNonNestedBounds) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  rtree::SkeletonSpec spec;
  spec.levels.push_back(rtree::SkeletonLevel{{0, 30, 100}, {0, 30, 100}});
  // 40 is not a leaf boundary: parent cells cannot tile the children.
  spec.levels.push_back(rtree::SkeletonLevel{{0, 40, 100}, {0, 100}});
  EXPECT_FALSE(tree->PreBuild(spec).ok());
}

TEST(PreBuildTest, InsertIntoSkeletonLandsInMatchingCell) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  rtree::SkeletonSpec spec;
  spec.levels.push_back(rtree::SkeletonLevel{
      {0, 25, 50, 75, 100}, {0, 25, 50, 75, 100}});
  ASSERT_TRUE(tree->PreBuild(spec).ok());

  ASSERT_TRUE(tree->Insert(Rect(10, 12, 10, 12), 1).ok());
  ASSERT_TRUE(tree->Insert(Rect(80, 82, 80, 82), 2).ok());
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  // A query confined to one cell must not touch distant cells.
  std::vector<SearchHit> hits;
  uint64_t accesses = 0;
  ASSERT_TRUE(tree->Search(Rect(5, 15, 5, 15), &hits, &accesses).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tid, 1u);
  EXPECT_LE(accesses, 5u);  // Root plus the few touched cells.
}

TEST(CoalesceTest, MergesAdjacentSparseLeaves) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  rtree::SkeletonSpec spec;
  // 6x6 empty leaves under a single root (36 < the 51-branch root quota).
  std::vector<Coord> bounds;
  for (int i = 0; i <= 6; ++i) bounds.push_back(i * 100.0 / 6);
  spec.levels.push_back(rtree::SkeletonLevel{bounds, bounds});
  ASSERT_TRUE(tree->PreBuild(spec).ok());

  const uint64_t before = tree->CollectLevelStats().value()[0].nodes;
  EXPECT_EQ(before, 36u);
  const auto merged = tree->CoalesceSparseLeaves(36);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0);
  const uint64_t after = tree->CollectLevelStats().value()[0].nodes;
  EXPECT_EQ(after, before - static_cast<uint64_t>(*merged));
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(CoalesceTest, DoesNotMergeFullLeaves) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  rtree::SkeletonSpec spec;
  spec.levels.push_back(
      rtree::SkeletonLevel{{0, 50, 100}, {0, 100}});  // Two leaves.
  ASSERT_TRUE(tree->PreBuild(spec).ok());
  // Fill both leaves beyond half capacity so a merge cannot fit.
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const Coord x = rng.Uniform(0, 100);
    ASSERT_TRUE(tree->Insert(Rect(x, x, 50, 50), i).ok());
  }
  const auto merged = tree->CoalesceSparseLeaves(10);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0);
}

TEST(CoalesceTest, PreservesSearchResults) {
  auto pager = MakeMemoryPager();
  auto tree = SRTree::Create(pager.get(), TreeOptions()).value();
  NaiveOracle oracle;
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI2;  // Skewed: leaves sparse up top.
  spec.count = 4000;
  spec.seed = 4;
  const std::vector<Rect> data = workload::GenerateDataset(spec);

  SkeletonOptions options = SmallOptions(4000, 400);
  SkeletonIndex skeleton(tree.get(), options);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(skeleton.Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(skeleton.built());
  EXPECT_GT(tree->stats().coalesced_nodes, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  for (double qar : {0.001, 1.0, 1000.0}) {
    for (const Rect& query : workload::GenerateQueries(qar, 1e6, 30, 31)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(skeleton.Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

TEST(SkeletonIndexTest, BuildsAfterPredictionSample) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  SkeletonIndex skeleton(tree.get(), SmallOptions(1000, 100));
  Rng rng(5);
  for (int i = 0; i < 99; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    ASSERT_TRUE(skeleton.Insert(Rect(x, x + 10, x, x + 10), i).ok());
  }
  EXPECT_FALSE(skeleton.built());
  EXPECT_EQ(tree->size(), 0u);  // Still buffering.
  ASSERT_TRUE(
      skeleton.Insert(Rect(5, 6, 5, 6), 99).ok());  // The 100th insert.
  EXPECT_TRUE(skeleton.built());
  EXPECT_EQ(tree->size(), 100u);
  EXPECT_GT(tree->height(), 1);
}

TEST(SkeletonIndexTest, SearchWhileBufferingForcesBuild) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  SkeletonIndex skeleton(tree.get(), SmallOptions(1000, 100));
  ASSERT_TRUE(skeleton.Insert(Rect(10, 20, 10, 20), 7).ok());
  EXPECT_FALSE(skeleton.built());
  std::vector<SearchHit> hits;
  ASSERT_TRUE(skeleton.Search(Rect(0, 100, 0, 100), &hits).ok());
  EXPECT_TRUE(skeleton.built());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tid, 7u);
}

TEST(SkeletonIndexTest, ZeroSampleBuildsUniformSkeletonUpFront) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  SkeletonOptions options = SmallOptions(5000, 0);
  SkeletonIndex skeleton(tree.get(), options);
  ASSERT_TRUE(skeleton.Insert(Rect(1, 2, 1, 2), 0).ok());
  EXPECT_TRUE(skeleton.built());
  EXPECT_GT(tree->height(), 1);  // Pre-partitioned despite 1 record.
}

struct SkeletonOracleCase {
  workload::DatasetKind dataset;
  bool segment;  // SR-Tree vs R-Tree under the skeleton.
  uint64_t seed;
};

void PrintTo(const SkeletonOracleCase& c, std::ostream* os) {
  *os << workload::DatasetKindName(c.dataset)
      << (c.segment ? "_SRTree" : "_RTree") << "_s" << c.seed;
}

class SkeletonOracleTest
    : public testing::TestWithParam<SkeletonOracleCase> {};

TEST_P(SkeletonOracleTest, SearchMatchesNaiveOracle) {
  const SkeletonOracleCase& c = GetParam();
  auto pager = MakeMemoryPager();
  std::unique_ptr<RTree> tree;
  if (c.segment) {
    tree = SRTree::Create(pager.get(), TreeOptions()).value();
  } else {
    tree = RTree::Create(pager.get(), TreeOptions()).value();
  }
  NaiveOracle oracle;

  workload::DatasetSpec spec;
  spec.kind = c.dataset;
  spec.count = 5000;
  spec.seed = c.seed;
  const std::vector<Rect> data = workload::GenerateDataset(spec);

  SkeletonIndex skeleton(tree.get(), SmallOptions(spec.count, 500));
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(skeleton.Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(skeleton.built());
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  for (double qar : {0.0001, 0.1, 1.0, 100.0}) {
    for (const Rect& query :
         workload::GenerateQueries(qar, 1e6, 20, c.seed + 7)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(skeleton.Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SkeletonOracleTest,
    testing::Values(
        SkeletonOracleCase{workload::DatasetKind::kI1, false, 1},
        SkeletonOracleCase{workload::DatasetKind::kI2, false, 2},
        SkeletonOracleCase{workload::DatasetKind::kI3, false, 3},
        SkeletonOracleCase{workload::DatasetKind::kI4, false, 4},
        SkeletonOracleCase{workload::DatasetKind::kR2, false, 5},
        SkeletonOracleCase{workload::DatasetKind::kI1, true, 6},
        SkeletonOracleCase{workload::DatasetKind::kI2, true, 7},
        SkeletonOracleCase{workload::DatasetKind::kI3, true, 8},
        SkeletonOracleCase{workload::DatasetKind::kI4, true, 9},
        SkeletonOracleCase{workload::DatasetKind::kR1, true, 10},
        SkeletonOracleCase{workload::DatasetKind::kR2, true, 11},
        SkeletonOracleCase{workload::DatasetKind::kRC2, true, 12}),
    testing::PrintToStringParamName());

TEST(SkeletonIndexTest, SkeletonSRTreeStoresSpanningRecordsHigh) {
  // The whole point of the Skeleton SR-Tree: long intervals span the
  // regular grid cells and land in non-leaf nodes.
  auto pager = MakeMemoryPager();
  auto tree = SRTree::Create(pager.get(), TreeOptions()).value();
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI3;  // Exponential lengths.
  spec.count = 40000;  // Enough for grid cells narrower than the mean length.
  spec.seed = 20;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  SkeletonIndex skeleton(tree.get(), SmallOptions(spec.count, 4000));
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(skeleton.Insert(data[i], i).ok());
  }
  EXPECT_GT(tree->stats().spanning_placed, 500u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

}  // namespace
}  // namespace segidx::skeleton
