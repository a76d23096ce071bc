// Tests for the spanning-overflow policies (rtree::SpanningOverflowPolicy)
// and the structure-introspection API.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracle/naive_oracle.h"
#include "srtree/srtree.h"
#include "storage/block_device.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace segidx::srtree {
namespace {

using oracle::NaiveOracle;
using rtree::SearchHit;
using rtree::SpanningOverflowPolicy;
using rtree::TreeOptions;
using test_util::CheckTree;
using test_util::MakeMemoryPager;
using test_util::Tids;

struct PolicyCase {
  SpanningOverflowPolicy policy;
  workload::DatasetKind dataset;
  uint64_t seed;
};

const char* PolicyName(SpanningOverflowPolicy policy) {
  switch (policy) {
    case SpanningOverflowPolicy::kDescend:
      return "Descend";
    case SpanningOverflowPolicy::kSplit:
      return "Split";
    case SpanningOverflowPolicy::kEvictSmallest:
      return "EvictSmallest";
  }
  return "?";
}

void PrintTo(const PolicyCase& c, std::ostream* os) {
  *os << PolicyName(c.policy) << "_"
      << workload::DatasetKindName(c.dataset) << "_s" << c.seed;
}

class OverflowPolicyTest : public testing::TestWithParam<PolicyCase> {};

// Search results must equal the oracle under every overflow policy, on
// workloads heavy enough to hit the quota (long intervals / big rects).
TEST_P(OverflowPolicyTest, MatchesOracleUnderQuotaPressure) {
  const PolicyCase& c = GetParam();
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.spanning_overflow_policy = c.policy;
  auto tree = SRTree::Create(pager.get(), options).value();
  NaiveOracle oracle;

  Rng rng(c.seed);
  TupleId tid = 0;
  // Dense points keep leaf regions small so long records overwhelm the
  // spanning quota quickly.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 150; ++i) {
      const Coord x = rng.Uniform(0, 100000);
      const Coord y = rng.Uniform(0, 100000);
      const Rect r = Rect::Point(x, y);
      ASSERT_TRUE(tree->Insert(r, tid).ok());
      oracle.Insert(r, tid);
      ++tid;
    }
    for (int i = 0; i < 25; ++i) {
      Rect r;
      if (c.dataset == workload::DatasetKind::kI3) {
        const Coord lo = rng.Uniform(0, 60000);
        r = Rect::Segment1D(lo, lo + rng.Exponential(25000, 40000),
                            rng.Uniform(0, 100000));
      } else {
        const Coord x = rng.Uniform(0, 60000);
        const Coord y = rng.Uniform(0, 60000);
        r = Rect(x, x + rng.Exponential(15000, 40000), y,
                 y + rng.Exponential(15000, 40000));
      }
      ASSERT_TRUE(tree->Insert(r, tid).ok());
      oracle.Insert(r, tid);
      ++tid;
    }
  }
  EXPECT_GT(tree->stats().spanning_placed, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  for (double qar : {0.001, 1.0, 1000.0}) {
    for (const Rect& query :
         workload::GenerateQueries(qar, 1e6, 25, c.seed + 5)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverflowPolicyTest,
    testing::Values(
        PolicyCase{SpanningOverflowPolicy::kDescend,
                   workload::DatasetKind::kI3, 1},
        PolicyCase{SpanningOverflowPolicy::kSplit,
                   workload::DatasetKind::kI3, 2},
        PolicyCase{SpanningOverflowPolicy::kEvictSmallest,
                   workload::DatasetKind::kI3, 3},
        PolicyCase{SpanningOverflowPolicy::kDescend,
                   workload::DatasetKind::kR2, 4},
        PolicyCase{SpanningOverflowPolicy::kSplit,
                   workload::DatasetKind::kR2, 5},
        PolicyCase{SpanningOverflowPolicy::kEvictSmallest,
                   workload::DatasetKind::kR2, 6}),
    testing::PrintToStringParamName());

// Builds an SR-Tree under quota pressure with the given policy and
// returns it.
std::unique_ptr<SRTree> BuildPressured(storage::Pager* pager,
                                       SpanningOverflowPolicy policy) {
  TreeOptions options;
  options.spanning_overflow_policy = policy;
  auto tree = SRTree::Create(pager, options).value();
  Rng rng(77);
  TupleId tid = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 120; ++i) {
      (void)tree->Insert(
          Rect::Point(rng.Uniform(0, 100000), rng.Uniform(0, 100000)),
          tid++);
    }
    for (int i = 0; i < 30; ++i) {
      const Coord lo = rng.Uniform(0, 40000);
      (void)tree->Insert(
          Rect::Segment1D(lo, lo + rng.Uniform(30000, 60000),
                          rng.Uniform(0, 100000)),
          tid++);
    }
  }
  return tree;
}

TEST(OverflowPolicyTest, EvictSmallestRecordsEvictions) {
  auto pager = MakeMemoryPager();
  auto tree =
      BuildPressured(pager.get(), SpanningOverflowPolicy::kEvictSmallest);
  EXPECT_GT(tree->stats().spanning_evictions, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(OverflowPolicyTest, DescendNeverEvicts) {
  auto pager = MakeMemoryPager();
  auto tree = BuildPressured(pager.get(), SpanningOverflowPolicy::kDescend);
  EXPECT_EQ(tree->stats().spanning_evictions, 0u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(OverflowPolicyTest, SplitGrowsSpanningCapacity) {
  // Under kSplit nothing bounds the spanning population, so it must exceed
  // what kDescend can hold.
  auto pager_a = MakeMemoryPager();
  auto descend =
      BuildPressured(pager_a.get(), SpanningOverflowPolicy::kDescend);
  auto pager_b = MakeMemoryPager();
  auto split = BuildPressured(pager_b.get(), SpanningOverflowPolicy::kSplit);
  auto count_spanning = [](rtree::RTree* tree) {
    uint64_t total = 0;
    auto stats = tree->CollectLevelStats().value();
    for (const auto& level : stats) total += level.spanning_entries;
    return total;
  };
  EXPECT_GT(count_spanning(split.get()), count_spanning(descend.get()));
  ASSERT_TRUE(CheckTree(split.get()).ok());
}

TEST(OverflowPolicyTest, PolicyPersistsAcrossReopen) {
  const std::string path = testing::TempDir() + "/policy_persist";
  std::remove(path.c_str());
  storage::PagerOptions pager_options;
  {
    auto pager = storage::Pager::Create(
                     storage::FileBlockDevice::Open(path, true).value(),
                     pager_options)
                     .value();
    TreeOptions options;
    options.spanning_overflow_policy = SpanningOverflowPolicy::kSplit;
    auto tree = SRTree::Create(pager.get(), options).value();
    ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  auto pager = storage::Pager::Open(
                   storage::FileBlockDevice::Open(path, false).value(),
                   pager_options)
                   .value();
  auto tree = SRTree::Open(pager.get()).value();
  EXPECT_EQ(tree->options().spanning_overflow_policy,
            SpanningOverflowPolicy::kSplit);
}

TEST(LevelStatsTest, AgreesWithNodeCounts) {
  auto pager = MakeMemoryPager();
  auto tree = BuildPressured(pager.get(),
                             SpanningOverflowPolicy::kEvictSmallest);
  const auto stats = tree->CollectLevelStats().value();
  ASSERT_EQ(stats.size(), static_cast<size_t>(tree->height()));
  EXPECT_EQ(stats.back().nodes, 1u);
  uint64_t branch_sum = 0;
  for (size_t level = 0; level < stats.size(); ++level) {
    EXPECT_GT(stats[level].avg_region_width, 0);
    EXPECT_LE(stats[level].avg_region_width,
              stats[level].max_region_width);
    if (level > 0) {
      // Branch entries at level k reference exactly the nodes at k-1.
      EXPECT_EQ(stats[level].branch_entries, stats[level - 1].nodes);
    }
    branch_sum += stats[level].branch_entries;
  }
  EXPECT_GT(branch_sum, 0u);
  // Every stored piece is either a leaf record or a spanning record: one
  // per logical record plus one per cut remnant (demotions and evictions
  // move pieces without changing the count).
  uint64_t spanning_total = 0;
  for (const auto& level : stats) spanning_total += level.spanning_entries;
  EXPECT_EQ(stats[0].branch_entries + spanning_total,
            tree->size() + tree->stats().remnants_inserted);
}

}  // namespace
}  // namespace segidx::srtree
