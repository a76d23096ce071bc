#include "srtree/srtree.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracle/naive_oracle.h"
#include "storage/block_device.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace segidx::srtree {
namespace {

using oracle::NaiveOracle;
using rtree::RTree;
using rtree::SearchHit;
using rtree::SplitAlgorithm;
using rtree::TreeOptions;
using test_util::CheckTree;
using test_util::MakeMemoryPager;
using test_util::Tids;

std::unique_ptr<SRTree> MakeTree(storage::Pager* pager,
                                 TreeOptions options = TreeOptions()) {
  auto result = SRTree::Create(pager, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(SRTreeTest, CapacitiesReserveBranchFraction) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  // 2 KB node at level 1: 2040 entry bytes. Byte capacity allows 51
  // branches (40 B each); the skeleton planner reserves 2/3 for branches
  // (34) and the remaining third bounds spanning records (14 x 48 B).
  EXPECT_EQ(tree->BranchCapacity(1), 51u);
  EXPECT_EQ(tree->BranchPlanningCapacity(1), 34u);
  EXPECT_EQ(tree->SpanningCapacity(1), 14u);
  EXPECT_EQ(tree->LeafCapacity(), 25u);
  EXPECT_TRUE(tree->spanning_enabled());
}

TEST(SRTreeTest, CreateRejectsFullBranchFraction) {
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.branch_fraction = 1.0;  // No room for spanning records.
  EXPECT_FALSE(SRTree::Create(pager.get(), options).ok());
}

TEST(SRTreeTest, DeleteIsUnimplemented) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
  EXPECT_EQ(tree->Delete(Rect(0, 1, 0, 1), 1).code(),
            StatusCode::kUnimplemented);
}

TEST(SRTreeTest, LongIntervalsBecomeSpanningRecords) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  Rng rng(5);
  // Many short segments to grow structure...
  for (int i = 0; i < 3000; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    const Coord y = rng.Uniform(0, 100000);
    ASSERT_TRUE(
        tree->Insert(Rect::Segment1D(x, x + 50, y), 1000000 + i).ok());
  }
  EXPECT_EQ(tree->stats().spanning_placed, 0u);  // Short segments only.
  // ...then long segments that span leaf regions.
  for (int i = 0; i < 200; ++i) {
    const Coord y = rng.Uniform(0, 100000);
    ASSERT_TRUE(tree->Insert(Rect::Segment1D(0, 100000, y), i).ok());
  }
  EXPECT_GT(tree->stats().spanning_placed, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(SRTreeTest, SpanningRecordsAreFoundBySearch) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  NaiveOracle oracle;
  Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    const Coord y = rng.Uniform(0, 100000);
    const Rect r =
        Rect::Segment1D(x, x + rng.Exponential(20000, 100000), y);
    ASSERT_TRUE(tree->Insert(r, i).ok());
    oracle.Insert(r, i);
  }
  ASSERT_GT(tree->stats().spanning_placed, 0u);
  for (const Rect& query : workload::GenerateQueries(0.001, 1e6, 40, 9)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

TEST(SRTreeTest, CutRecordsRemainLogicallyWhole) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  NaiveOracle oracle;
  Rng rng(7);
  // Clustered short data forces tight node regions; very long segments
  // must then be cut against them.
  for (int i = 0; i < 4000; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    const Coord y = rng.Uniform(0, 100000);
    const Rect r = Rect::Segment1D(x, x + 20, y);
    ASSERT_TRUE(tree->Insert(r, 100000 + i).ok());
    oracle.Insert(r, 100000 + i);
  }
  for (int i = 0; i < 300; ++i) {
    const Coord c = rng.Uniform(0, 100000);
    const Coord len = rng.Exponential(30000, 100000);
    const Rect r =
        Rect::Segment1D(c - len / 2, c + len / 2, rng.Uniform(0, 100000));
    ASSERT_TRUE(tree->Insert(r, i).ok());
    oracle.Insert(r, i);
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  // Every logical record is retrievable in full via any of its pieces.
  for (const Rect& query : workload::GenerateQueries(1, 1e6, 60, 17)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

struct SrOracleCase {
  workload::DatasetKind dataset;
  uint64_t count;
  uint64_t seed;
};

void PrintTo(const SrOracleCase& c, std::ostream* os) {
  *os << workload::DatasetKindName(c.dataset) << "_n" << c.count << "_s"
      << c.seed;
}

class SRTreeOracleTest : public testing::TestWithParam<SrOracleCase> {};

TEST_P(SRTreeOracleTest, SearchMatchesNaiveOracle) {
  const SrOracleCase& c = GetParam();
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  NaiveOracle oracle;

  workload::DatasetSpec spec;
  spec.kind = c.dataset;
  spec.count = c.count;
  spec.seed = c.seed;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  for (double qar : {0.0001, 0.1, 1.0, 10.0, 10000.0}) {
    for (const Rect& query :
         workload::GenerateQueries(qar, 1e6, 20, c.seed + 123)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SRTreeOracleTest,
    testing::Values(SrOracleCase{workload::DatasetKind::kI1, 3000, 1},
                    SrOracleCase{workload::DatasetKind::kI2, 3000, 2},
                    SrOracleCase{workload::DatasetKind::kI3, 3000, 3},
                    SrOracleCase{workload::DatasetKind::kI3, 3000, 13},
                    SrOracleCase{workload::DatasetKind::kI4, 3000, 4},
                    SrOracleCase{workload::DatasetKind::kI4, 3000, 14},
                    SrOracleCase{workload::DatasetKind::kR1, 3000, 5},
                    SrOracleCase{workload::DatasetKind::kR2, 3000, 6},
                    SrOracleCase{workload::DatasetKind::kR2, 3000, 16},
                    SrOracleCase{workload::DatasetKind::kRC1, 3000, 7},
                    SrOracleCase{workload::DatasetKind::kRC2, 3000, 8},
                    SrOracleCase{workload::DatasetKind::kI3, 150, 9},
                    SrOracleCase{workload::DatasetKind::kR2, 40, 10}),
    testing::PrintToStringParamName());

TEST(SRTreeTest, ExercisesDemotionAndPromotionPaths) {
  // Point data keeps leaf regions compact, so full-width segments become
  // spanning records; continued point inserts then expand regions and node
  // splits shuffle branches, which must hit the demotion / relink /
  // promotion machinery. Guards against those paths silently dying.
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  Rng rng(99);
  TupleId tid = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 100; ++i) {
      const Coord x = rng.Uniform(0, 100000);
      const Coord y = rng.Uniform(0, 100000);
      ASSERT_TRUE(tree->Insert(Rect::Point(x, y), tid++).ok());
    }
    for (int i = 0; i < 10; ++i) {
      const Coord y = rng.Uniform(0, 100000);
      const Coord lo = rng.Uniform(0, 50000);
      ASSERT_TRUE(
          tree->Insert(Rect::Segment1D(lo, lo + 50000, y), tid++).ok());
    }
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  EXPECT_GT(tree->stats().spanning_placed, 0u);
  EXPECT_GT(tree->stats().promotions + tree->stats().demotions +
                tree->stats().relinks,
            0u);
}

TEST(SRTreeTest, OneDimensionalRuleLockData) {
  // Paper Section 2.2: variable-length intervals and point data mixed in a
  // single 1-D index (rule predicates over salaries).
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  NaiveOracle oracle;
  Rng rng(11);
  TupleId tid = 0;
  for (int i = 0; i < 1500; ++i) {
    Rect r;
    if (i % 3 == 0) {
      const Coord v = rng.Uniform(0, 200000);  // Point predicate.
      r = Rect::Segment1D(v, v);
    } else {
      const Coord lo = rng.Uniform(0, 150000);
      r = Rect::Segment1D(lo, lo + rng.Exponential(20000, 50000));
    }
    ASSERT_TRUE(tree->Insert(r, tid).ok());
    oracle.Insert(r, tid);
    ++tid;
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (int i = 0; i < 200; ++i) {
    const Coord v = rng.Uniform(0, 200000);
    const Rect stab = Rect::Segment1D(v, v);
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(stab, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(stab));
  }
}

TEST(SRTreeTest, PersistsAcrossReopen) {
  const std::string path = testing::TempDir() + "/srtree_persist";
  std::remove(path.c_str());
  storage::PagerOptions pager_options;
  std::vector<Rect> data;
  {
    auto pager = storage::Pager::Create(
                     storage::FileBlockDevice::Open(path, true).value(),
                     pager_options)
                     .value();
    auto tree = MakeTree(pager.get());
    // Points (compact leaves) plus full-width segments (guaranteed
    // spanning records) so persistence covers the spanning machinery.
    Rng rng(33);
    for (int i = 0; i < 2200; ++i) {
      const Coord x = rng.Uniform(0, 100000);
      const Coord y = rng.Uniform(0, 100000);
      data.push_back(Rect::Point(x, y));
    }
    for (int i = 0; i < 300; ++i) {
      data.push_back(Rect::Segment1D(0, 100000, rng.Uniform(0, 100000)));
    }
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(tree->Insert(data[i], i).ok());
    }
    EXPECT_GT(tree->stats().spanning_placed, 0u);
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto pager = storage::Pager::Open(
                     storage::FileBlockDevice::Open(path, false).value(),
                     pager_options)
                     .value();
    // Opening as a plain R-Tree must be refused.
    EXPECT_FALSE(RTree::Open(pager.get()).ok());
    auto tree = SRTree::Open(pager.get()).value();
    EXPECT_EQ(tree->size(), 2500u);
    ASSERT_TRUE(CheckTree(tree.get()).ok());
    NaiveOracle oracle;
    for (size_t i = 0; i < data.size(); ++i) oracle.Insert(data[i], i);
    for (const Rect& query : workload::GenerateQueries(0.01, 1e6, 30, 3)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

TEST(SRTreeTest, WrongKindOpenIsRejected) {
  const std::string path = testing::TempDir() + "/srtree_wrong_kind";
  std::remove(path.c_str());
  storage::PagerOptions pager_options;
  {
    auto pager = storage::Pager::Create(
                     storage::FileBlockDevice::Open(path, true).value(),
                     pager_options)
                     .value();
    auto tree = RTree::Create(pager.get(), TreeOptions()).value();
    ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  auto pager = storage::Pager::Open(
                   storage::FileBlockDevice::Open(path, false).value(),
                   pager_options)
                   .value();
  EXPECT_FALSE(SRTree::Open(pager.get()).ok());
}

TEST(SRTreeTest, LinearSplitVariantMatchesOracle) {
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.split_algorithm = SplitAlgorithm::kLinear;
  auto tree = MakeTree(pager.get(), options);
  NaiveOracle oracle;
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI4;
  spec.count = 2500;
  spec.seed = 55;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (const Rect& query : workload::GenerateQueries(1, 1e6, 40, 21)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

TEST(SRTreeTest, FixedNodeSizeVariantMatchesOracle) {
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.double_node_size_per_level = false;  // Ablation configuration.
  auto tree = MakeTree(pager.get(), options);
  NaiveOracle oracle;
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kR2;
  spec.count = 2500;
  spec.seed = 66;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (const Rect& query : workload::GenerateQueries(1, 1e6, 40, 22)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

}  // namespace
}  // namespace segidx::srtree
