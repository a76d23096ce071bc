// Focused tests for the coalescing pass (paper Section 4 adaptation):
// chain merging, least-frequently-modified candidate selection, and
// spanning-record re-homing when merges restructure a parent.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
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

// A 5x5 skeleton grid under one root.
SkeletonSpec Grid5x5() {
  std::vector<Coord> bounds;
  for (int i = 0; i <= 5; ++i) bounds.push_back(i * 20.0);
  SkeletonSpec spec;
  spec.levels.push_back(SkeletonLevel{bounds, bounds});
  return spec;
}

TEST(CoalesceChainTest, EmptyGridCollapsesInOnePass) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->PreBuild(Grid5x5()).ok());
  EXPECT_EQ(tree->CollectLevelStats().value()[0].nodes, 25u);

  // A single candidate can absorb every adjacent sibling in a chain.
  const auto merged = tree->CoalesceSparseLeaves(25);
  ASSERT_TRUE(merged.ok());
  // 25 empty cells collapse dramatically (each candidate chain-merges its
  // whole neighborhood).
  EXPECT_GE(*merged, 20);
  EXPECT_LE(tree->CollectLevelStats().value()[0].nodes, 5u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(CoalesceChainTest, StopsAtLeafCapacity) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->PreBuild(Grid5x5()).ok());
  // 10 records in every cell: any merge of 3 cells would exceed the
  // 25-record leaf capacity, so only pairs can form.
  Rng rng(3);
  TupleId tid = 0;
  for (int cx = 0; cx < 5; ++cx) {
    for (int cy = 0; cy < 5; ++cy) {
      for (int i = 0; i < 10; ++i) {
        const Coord x = cx * 20 + rng.Uniform(1, 19);
        const Coord y = cy * 20 + rng.Uniform(1, 19);
        ASSERT_TRUE(tree->Insert(Rect::Point(x, y), tid++).ok());
      }
    }
  }
  const auto merged = tree->CoalesceSparseLeaves(25);
  ASSERT_TRUE(merged.ok());
  const auto leaves = tree->CollectLevelStats().value()[0].nodes;
  // 250 records / 25 capacity = 10 leaves minimum; pairs-only merging from
  // 25 cells cannot go below 13.
  EXPECT_GE(leaves, 13u);
  EXPECT_LT(leaves, 25u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(CoalesceChainTest, PrefersLeastFrequentlyModifiedLeaves) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->PreBuild(Grid5x5()).ok());
  // Hammer the four corner cells with inserts; leave the rest sparse.
  Rng rng(5);
  TupleId tid = 0;
  for (int i = 0; i < 20; ++i) {
    for (const auto& [cx, cy] :
         std::vector<std::pair<int, int>>{{0, 0}, {4, 0}, {0, 4}, {4, 4}}) {
      const Coord x = cx * 20 + rng.Uniform(1, 19);
      const Coord y = cy * 20 + rng.Uniform(1, 19);
      ASSERT_TRUE(tree->Insert(Rect::Point(x, y), tid++).ok());
    }
  }
  // With only 4 candidates examined, the pass must pick (and merge) among
  // the cold middle cells, never the hot corners.
  const auto merged = tree->CoalesceSparseLeaves(4);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  // The hot corners kept their records findable.
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(0, 100, 0, 100), &hits).ok());
  EXPECT_EQ(hits.size(), 80u);
}

TEST(CoalesceChainTest, RehomesSpanningRecordsOnMerge) {
  auto pager = MakeMemoryPager();
  auto tree = srtree::SRTree::Create(pager.get(), TreeOptions()).value();
  ASSERT_TRUE(tree->PreBuild(Grid5x5()).ok());
  NaiveOracle oracle;
  TupleId tid = 0;
  Rng rng(7);
  // Horizontal segments spanning individual cells become spanning records
  // linked to those cells on the root.
  for (int i = 0; i < 40; ++i) {
    const Coord y = rng.Uniform(0, 100);
    const Coord lo = rng.Uniform(0, 60);
    const Rect r = Rect::Segment1D(lo, lo + rng.Uniform(22, 40), y);
    ASSERT_TRUE(tree->Insert(r, tid).ok());
    oracle.Insert(r, tid);
    ++tid;
  }
  ASSERT_GT(tree->stats().spanning_placed, 0u);

  // Merging cells invalidates some linked branches; relink/demote must
  // keep every record findable and invariants intact.
  const auto merged = tree->CoalesceSparseLeaves(25);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(*merged, 0);
  ASSERT_TRUE(CheckTree(tree.get()).ok());
  for (int probe = 0; probe < 100; ++probe) {
    const Rect q = Rect::Point(rng.Uniform(0, 100), rng.Uniform(0, 100));
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(q, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(q));
  }
}

TEST(CoalesceChainTest, NoCandidatesIsANoOp) {
  auto pager = MakeMemoryPager();
  auto tree = RTree::Create(pager.get(), TreeOptions()).value();
  // Single-leaf tree: nothing to coalesce.
  ASSERT_TRUE(tree->Insert(Rect(0, 1, 0, 1), 1).ok());
  EXPECT_EQ(tree->CoalesceSparseLeaves(10).value(), 0);
  EXPECT_EQ(tree->CoalesceSparseLeaves(0).value(), 0);
}

}  // namespace
}  // namespace segidx::rtree
