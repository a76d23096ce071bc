#include "core/interval_index.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/naive_oracle.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace segidx::core {
namespace {

using oracle::NaiveOracle;
using test_util::Tids;

IndexOptions SmallOptions(uint64_t expected_tuples) {
  IndexOptions options;
  options.skeleton.expected_tuples = expected_tuples;
  options.skeleton.prediction_sample =
      std::max<uint64_t>(1, expected_tuples / 10);
  options.skeleton.coalesce_interval = 500;
  return options;
}

const IndexKind kAllKinds[] = {IndexKind::kRTree, IndexKind::kSRTree,
                               IndexKind::kSkeletonRTree,
                               IndexKind::kSkeletonSRTree};

TEST(IntervalIndexTest, KindNames) {
  EXPECT_STREQ(IndexKindName(IndexKind::kRTree), "R-Tree");
  EXPECT_STREQ(IndexKindName(IndexKind::kSRTree), "SR-Tree");
  EXPECT_STREQ(IndexKindName(IndexKind::kSkeletonRTree), "Skeleton R-Tree");
  EXPECT_STREQ(IndexKindName(IndexKind::kSkeletonSRTree),
               "Skeleton SR-Tree");
  EXPECT_TRUE(IsSkeleton(IndexKind::kSkeletonRTree));
  EXPECT_FALSE(IsSkeleton(IndexKind::kSRTree));
  EXPECT_TRUE(IsSegment(IndexKind::kSkeletonSRTree));
  EXPECT_FALSE(IsSegment(IndexKind::kSkeletonRTree));
}

TEST(IntervalIndexTest, RejectsManuallyEnabledSpanning) {
  IndexOptions options;
  options.tree.enable_spanning = true;
  EXPECT_FALSE(
      IntervalIndex::CreateInMemory(IndexKind::kSRTree, options).ok());
}

TEST(IntervalIndexTest, InsertIntervalConvenience) {
  auto index = IntervalIndex::CreateInMemory(IndexKind::kSRTree,
                                             SmallOptions(100))
                   .value();
  ASSERT_TRUE(index->InsertInterval(Interval(10, 90), 5, 1).ok());
  std::vector<TupleId> tids;
  ASSERT_TRUE(index->SearchTuples(Rect(50, 50, 5, 5), &tids).ok());
  EXPECT_EQ(tids, (std::vector<TupleId>{1}));
}

TEST(IntervalIndexTest, SearchTuplesDeduplicatesCutPieces) {
  auto index = IntervalIndex::CreateInMemory(IndexKind::kSRTree,
                                             SmallOptions(10000))
                   .value();
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI3;
  spec.count = 5000;
  spec.seed = 2;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data[i], i).ok());
  }
  // With exponential lengths some records are cut; SearchTuples must never
  // report a tuple twice.
  for (const Rect& query : workload::GenerateQueries(10, 1e6, 30, 5)) {
    std::vector<TupleId> tids;
    ASSERT_TRUE(index->SearchTuples(query, &tids).ok());
    std::vector<TupleId> sorted = tids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

class AllKindsOracleTest
    : public testing::TestWithParam<std::tuple<IndexKind, int>> {};

TEST_P(AllKindsOracleTest, MatchesOracleOnMixedWorkload) {
  const IndexKind kind = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  auto index =
      IntervalIndex::CreateInMemory(kind, SmallOptions(4000)).value();
  NaiveOracle oracle;

  workload::DatasetSpec spec;
  spec.kind = seed % 2 == 0 ? workload::DatasetKind::kI4
                            : workload::DatasetKind::kR2;
  spec.count = 4000;
  spec.seed = static_cast<uint64_t>(seed);
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(index->Finalize().ok());
  ASSERT_TRUE(index->CheckInvariants().ok());
  EXPECT_EQ(index->size(), 4000u);

  for (double qar : {0.001, 1.0, 1000.0}) {
    for (const Rect& query :
         workload::GenerateQueries(qar, 1e6, 15, seed + 40)) {
      std::vector<TupleId> tids;
      ASSERT_TRUE(index->SearchTuples(query, &tids).ok());
      std::sort(tids.begin(), tids.end());
      EXPECT_EQ(tids, oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllKindsOracleTest,
    testing::Combine(testing::ValuesIn(kAllKinds), testing::Values(1, 2)),
    [](const testing::TestParamInfo<std::tuple<IndexKind, int>>& info) {
      std::string name = IndexKindName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == ' ' || c == '-') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(IntervalIndexTest, PersistAndReopenAllKinds) {
  for (IndexKind kind : kAllKinds) {
    const std::string path = testing::TempDir() + "/iidx_" +
                             std::to_string(static_cast<int>(kind));
    std::remove(path.c_str());
    IndexOptions options = SmallOptions(2000);
    NaiveOracle oracle;
    {
      auto created = IntervalIndex::CreateOnDisk(kind, path, options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      auto index = std::move(created).value();
      workload::DatasetSpec spec;
      spec.kind = workload::DatasetKind::kI3;
      spec.count = 2000;
      spec.seed = 3;
      const std::vector<Rect> data = workload::GenerateDataset(spec);
      for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_TRUE(index->Insert(data[i], i).ok());
        oracle.Insert(data[i], i);
      }
      ASSERT_TRUE(index->Commit().ok());
    }
    {
      auto opened = IntervalIndex::OpenFromDisk(path, options);
      ASSERT_TRUE(opened.ok())
          << IndexKindName(kind) << ": " << opened.status().ToString();
      auto index = std::move(opened).value();
      EXPECT_EQ(index->kind(), kind);
      EXPECT_EQ(index->size(), 2000u);
      ASSERT_TRUE(index->CheckInvariants().ok());
      for (const Rect& query : workload::GenerateQueries(1, 1e6, 20, 8)) {
        std::vector<TupleId> tids;
        ASSERT_TRUE(index->SearchTuples(query, &tids).ok());
        std::sort(tids.begin(), tids.end());
        EXPECT_EQ(tids, oracle.Search(query));
      }
    }
  }
}

// The plain Search overload forwards to the options overload, which
// finalizes a still-buffering skeleton before searching (as SearchBatch
// does): one search builds the skeleton, then answers over every record.
TEST(IntervalIndexTest, SearchBuildsBufferingSkeleton) {
  IndexOptions options = SmallOptions(2000);
  options.skeleton.prediction_sample = 5000;  // Above the insert count.
  auto index =
      IntervalIndex::CreateInMemory(IndexKind::kSkeletonSRTree, options)
          .value();
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI1;
  spec.count = 500;
  spec.seed = 3;
  const std::vector<Rect> rects = workload::GenerateDataset(spec);
  NaiveOracle oracle;
  for (size_t i = 0; i < rects.size(); ++i) {
    ASSERT_TRUE(index->Insert(rects[i], i).ok());
    oracle.Insert(rects[i], i);
  }
  ASSERT_TRUE(index->skeleton_building());

  const Rect query =
      workload::GenerateQueries(/*qar=*/1.0, /*area=*/1e8, 1, /*seed=*/5)
          .front();
  std::vector<rtree::SearchHit> hits;
  uint64_t nodes = 0;
  ASSERT_TRUE(index->Search(query, &hits, &nodes).ok());
  EXPECT_FALSE(index->skeleton_building());
  EXPECT_GT(nodes, 0u);
  EXPECT_FALSE(oracle.Search(query).empty());
  EXPECT_EQ(Tids(hits), oracle.Search(query));
}

TEST(IntervalIndexTest, OpenMissingFileFails) {
  EXPECT_FALSE(IntervalIndex::OpenFromDisk(
                   testing::TempDir() + "/definitely_missing_index",
                   IndexOptions())
                   .ok());
}

TEST(IntervalIndexTest, DeleteOnlyOnPlainRTree) {
  auto rtree = IntervalIndex::CreateInMemory(IndexKind::kRTree,
                                             SmallOptions(100))
                   .value();
  ASSERT_TRUE(rtree->Insert(Rect(0, 1, 0, 1), 1).ok());
  EXPECT_TRUE(rtree->Delete(Rect(0, 1, 0, 1), 1).ok());

  auto srtree = IntervalIndex::CreateInMemory(IndexKind::kSRTree,
                                              SmallOptions(100))
                    .value();
  ASSERT_TRUE(srtree->Insert(Rect(0, 1, 0, 1), 1).ok());
  EXPECT_EQ(srtree->Delete(Rect(0, 1, 0, 1), 1).code(),
            StatusCode::kUnimplemented);
}

TEST(IntervalIndexTest, BulkLoadOnNonSkeletonKinds) {
  std::vector<std::pair<Rect, TupleId>> records;
  for (int i = 0; i < 500; ++i) {
    const double x = (i % 50) * 100.0;
    const double y = (i / 50) * 1000.0;
    records.emplace_back(Rect(x, x + 10, y, y + 10), i);
  }
  auto index =
      IntervalIndex::CreateInMemory(IndexKind::kRTree, SmallOptions(500))
          .value();
  ASSERT_TRUE(index->BulkLoad(records).ok());
  EXPECT_EQ(index->size(), 500u);
  ASSERT_TRUE(index->CheckInvariants().ok());
  std::vector<TupleId> tids;
  ASSERT_TRUE(index->SearchTuples(Rect(0, 5000, 0, 10000), &tids).ok());
  EXPECT_FALSE(tids.empty());

  // Skeleton kinds refuse: packing replaces skeleton construction.
  auto skeleton = IntervalIndex::CreateInMemory(IndexKind::kSkeletonSRTree,
                                                SmallOptions(500))
                      .value();
  EXPECT_EQ(skeleton->BulkLoad(records).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IntervalIndexTest, DumpStructureMentionsEveryLevel) {
  auto index = IntervalIndex::CreateInMemory(IndexKind::kSRTree,
                                             SmallOptions(2000))
                   .value();
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kM1;
  spec.count = 2000;
  spec.seed = 7;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data[i], i).ok());
  }
  std::ostringstream os;
  ASSERT_TRUE(index->tree()->DumpStructure(os, /*max_depth=*/1).ok());
  const std::string dump = os.str();
  EXPECT_NE(dump.find("level-"), std::string::npos);
  EXPECT_NE(dump.find("branches"), std::string::npos);
  EXPECT_NE(dump.find("elided"), std::string::npos);  // Depth was limited.

  // A full dump reaches the leaves and mentions spanning records if any
  // were placed.
  std::ostringstream full;
  ASSERT_TRUE(index->tree()->DumpStructure(full).ok());
  EXPECT_NE(full.str().find("leaf @"), std::string::npos);
  if (index->tree_stats().spanning_placed > 0) {
    EXPECT_NE(full.str().find("~ span"), std::string::npos);
  }
}

TEST(IntervalIndexTest, StatsAndIntrospection) {
  auto index = IntervalIndex::CreateInMemory(IndexKind::kSkeletonSRTree,
                                             SmallOptions(3000))
                   .value();
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI3;
  spec.count = 3000;
  spec.seed = 9;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data[i], i).ok());
  }
  ASSERT_TRUE(index->Finalize().ok());
  EXPECT_GT(index->index_bytes(), 100000u);
  EXPECT_GT(index->height(), 1);
  EXPECT_GT(index->tree_stats().spanning_placed, 0u);
  EXPECT_GT(index->storage_stats().logical_reads, 0u);
  auto per_level = index->NodesPerLevel();
  ASSERT_TRUE(per_level.ok());
  EXPECT_EQ(per_level->size(), static_cast<size_t>(index->height()));
  index->ResetStats();
  EXPECT_EQ(index->tree_stats().inserts, 0u);
  EXPECT_EQ(index->storage_stats().logical_reads, 0u);
}

}  // namespace
}  // namespace segidx::core
