#include "rtree/bulk_load.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/naive_oracle.h"
#include "srtree/srtree.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace segidx::rtree {
namespace {

using oracle::NaiveOracle;
using test_util::CheckTree;
using test_util::MakeMemoryPager;
using test_util::Tids;

std::vector<std::pair<Rect, TupleId>> MakeRecords(
    workload::DatasetKind kind, uint64_t count, uint64_t seed) {
  workload::DatasetSpec spec;
  spec.kind = kind;
  spec.count = count;
  spec.seed = seed;
  const std::vector<Rect> rects = workload::GenerateDataset(spec);
  std::vector<std::pair<Rect, TupleId>> out;
  out.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) out.emplace_back(rects[i], i);
  return out;
}

struct PackCase {
  PackingMethod method;
  workload::DatasetKind dataset;
  uint64_t count;
};

void PrintTo(const PackCase& c, std::ostream* os) {
  *os << (c.method == PackingMethod::kLowX  ? "LowX"
          : c.method == PackingMethod::kSTR ? "STR"
                                            : "Hilbert")
      << "_"
      << workload::DatasetKindName(c.dataset) << "_n" << c.count;
}

class BulkLoadTest : public testing::TestWithParam<PackCase> {};

TEST_P(BulkLoadTest, MatchesOracleAndInvariants) {
  const PackCase& c = GetParam();
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  auto records = MakeRecords(c.dataset, c.count, 3);
  NaiveOracle oracle;
  for (const auto& [rect, tid] : records) oracle.Insert(rect, tid);

  ASSERT_TRUE(BulkLoad(tree.get(), records, c.method).ok());
  EXPECT_EQ(tree->size(), c.count);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  for (double qar : {0.01, 1.0, 100.0}) {
    for (const Rect& query : workload::GenerateQueries(qar, 1e6, 20, 9)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Packings, BulkLoadTest,
    testing::Values(
        PackCase{PackingMethod::kSTR, workload::DatasetKind::kR1, 5000},
        PackCase{PackingMethod::kSTR, workload::DatasetKind::kI3, 5000},
        PackCase{PackingMethod::kLowX, workload::DatasetKind::kR1, 5000},
        PackCase{PackingMethod::kLowX, workload::DatasetKind::kI3, 5000},
        PackCase{PackingMethod::kSTR, workload::DatasetKind::kR2, 24},
        PackCase{PackingMethod::kSTR, workload::DatasetKind::kR2, 25},
        PackCase{PackingMethod::kSTR, workload::DatasetKind::kR2, 26},
        PackCase{PackingMethod::kHilbert, workload::DatasetKind::kR1, 5000},
        PackCase{PackingMethod::kHilbert, workload::DatasetKind::kI3, 5000},
        PackCase{PackingMethod::kHilbert, workload::DatasetKind::kR2, 26}),
    testing::PrintToStringParamName());

TEST(BulkLoadTest, PacksNodesFull) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(
      BulkLoad(tree.get(), MakeRecords(workload::DatasetKind::kR1, 10000, 5))
          .ok());
  // 10000 records / 25 per leaf = exactly 400 full leaves.
  const uint64_t leaves = tree->CollectLevelStats().value()[0].nodes;
  EXPECT_EQ(leaves, 400u);
  // A dynamically grown tree is ~60-70% full: far more leaves.
  auto pager2 = MakeMemoryPager();
  auto dynamic_tree = RTree::Create(pager2.get(), TreeOptions()).value();
  for (const auto& [rect, tid] :
       MakeRecords(workload::DatasetKind::kR1, 10000, 5)) {
    ASSERT_TRUE(dynamic_tree->Insert(rect, tid).ok());
  }
  const uint64_t dynamic_leaves =
      dynamic_tree->CollectLevelStats().value()[0].nodes;
  EXPECT_GT(dynamic_leaves, leaves * 5 / 4);
}

TEST(BulkLoadTest, PartialFillFraction) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(BulkLoad(tree.get(),
                       MakeRecords(workload::DatasetKind::kR1, 1000, 7),
                       PackingMethod::kSTR, /*fill_fraction=*/0.5)
                  .ok());
  // 1000 records / 12 per leaf.
  EXPECT_GE(tree->CollectLevelStats().value()[0].nodes, 83u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(BulkLoadTest, RequiresEmptyTree) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
  EXPECT_EQ(BulkLoad(tree.get(), MakeRecords(workload::DatasetKind::kR1,
                                             100, 1))
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BulkLoadTest, RejectsInvalidRecords) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  std::vector<std::pair<Rect, TupleId>> bad = {{Rect(5, 1, 0, 1), 1}};
  EXPECT_FALSE(BulkLoad(tree.get(), bad).ok());
  EXPECT_FALSE(
      BulkLoad(tree.get(), MakeRecords(workload::DatasetKind::kR1, 10, 1),
               PackingMethod::kSTR, /*fill_fraction=*/0)
          .ok());
}

TEST(BulkLoadTest, EmptyInputIsFine) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(BulkLoad(tree.get(), {}).ok());
  EXPECT_EQ(tree->size(), 0u);
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(0, 1, 0, 1), &hits).ok());
  EXPECT_TRUE(hits.empty());
}

TEST(BulkLoadTest, PackedTreeAcceptsDynamicInserts) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  auto records = MakeRecords(workload::DatasetKind::kR1, 4000, 11);
  NaiveOracle oracle;
  for (const auto& [rect, tid] : records) oracle.Insert(rect, tid);
  ASSERT_TRUE(BulkLoad(tree.get(), records).ok());

  // Packed nodes are full, so the very first inserts split.
  auto extra = MakeRecords(workload::DatasetKind::kR2, 1000, 12);
  for (const auto& [rect, tid] : extra) {
    ASSERT_TRUE(tree->Insert(rect, 100000 + tid).ok());
    oracle.Insert(rect, 100000 + tid);
  }
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (const Rect& query : workload::GenerateQueries(1, 1e6, 30, 13)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

TEST(BulkLoadTest, WorksOnSRTree) {
  auto pager = MakeMemoryPager();
  auto tree = srtree::SRTree::Create(pager.get(), TreeOptions()).value();
  auto records = MakeRecords(workload::DatasetKind::kI3, 4000, 15);
  NaiveOracle oracle;
  for (const auto& [rect, tid] : records) oracle.Insert(rect, tid);
  ASSERT_TRUE(BulkLoad(tree.get(), records).ok());
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  // Later dynamic inserts may create spanning records on the packed frame.
  for (int i = 0; i < 500; ++i) {
    const Coord y = 100.0 * i;
    const Rect r = Rect::Segment1D(0, 100000, y);
    ASSERT_TRUE(tree->Insert(r, 500000 + i).ok());
    oracle.Insert(r, 500000 + i);
  }
  EXPECT_GT(tree->stats().spanning_placed, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (const Rect& query : workload::GenerateQueries(0.01, 1e6, 30, 17)) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

}  // namespace
}  // namespace segidx::rtree
