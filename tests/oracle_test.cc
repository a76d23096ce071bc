#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracle/interval_tree.h"
#include "oracle/naive_oracle.h"
#include "oracle/segment_tree.h"

namespace segidx::oracle {
namespace {

TEST(NaiveOracleTest, InsertSearchDelete) {
  NaiveOracle oracle;
  oracle.Insert(Rect(0, 10, 0, 10), 1);
  oracle.Insert(Rect(5, 15, 5, 15), 2);
  oracle.Insert(Rect(100, 110, 100, 110), 3);
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)),
            (std::vector<TupleId>{1, 2}));
  EXPECT_TRUE(oracle.Delete(Rect(5, 15, 5, 15), 2));
  EXPECT_FALSE(oracle.Delete(Rect(5, 15, 5, 15), 2));
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)), (std::vector<TupleId>{1}));
  EXPECT_EQ(oracle.size(), 2u);
}

TEST(NaiveOracleTest, DeduplicatesTids) {
  NaiveOracle oracle;
  oracle.Insert(Rect(0, 10, 0, 10), 1);
  oracle.Insert(Rect(5, 15, 5, 15), 1);  // Same tuple, second piece.
  EXPECT_EQ(oracle.Search(Rect(7, 8, 7, 8)), (std::vector<TupleId>{1}));
}

TEST(IntervalTreeTest, BasicStab) {
  IntervalTree tree;
  tree.Insert(Interval(0, 10), 1);
  tree.Insert(Interval(5, 15), 2);
  tree.Insert(Interval(20, 30), 3);
  EXPECT_EQ(tree.Stab(7), (std::vector<TupleId>{1, 2}));
  EXPECT_EQ(tree.Stab(0), (std::vector<TupleId>{1}));
  EXPECT_EQ(tree.Stab(15), (std::vector<TupleId>{2}));
  EXPECT_EQ(tree.Stab(17), std::vector<TupleId>());
  EXPECT_EQ(tree.size(), 3u);
}

TEST(IntervalTreeTest, OverlappingRange) {
  IntervalTree tree;
  tree.Insert(Interval(0, 10), 1);
  tree.Insert(Interval(20, 30), 2);
  tree.Insert(Interval(40, 50), 3);
  EXPECT_EQ(tree.Overlapping(Interval(8, 22)),
            (std::vector<TupleId>{1, 2}));
  EXPECT_EQ(tree.Overlapping(Interval(-5, 100)),
            (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(tree.Overlapping(Interval(11, 19)), std::vector<TupleId>());
}

TEST(IntervalTreeTest, DeleteMaintainsAugmentation) {
  IntervalTree tree;
  tree.Insert(Interval(0, 100), 1);  // The dominating interval.
  tree.Insert(Interval(10, 20), 2);
  tree.Insert(Interval(30, 40), 3);
  EXPECT_TRUE(tree.Delete(Interval(0, 100), 1));
  EXPECT_EQ(tree.size(), 2u);
  // max_hi must have been recomputed; a stab at 90 finds nothing.
  EXPECT_EQ(tree.Stab(90), std::vector<TupleId>());
  EXPECT_EQ(tree.Stab(35), (std::vector<TupleId>{3}));
  EXPECT_FALSE(tree.Delete(Interval(0, 100), 1));
}

TEST(IntervalTreeTest, RandomizedAgainstNaive) {
  IntervalTree tree;
  NaiveOracle naive;
  Rng rng(17);
  std::vector<std::pair<Interval, TupleId>> live;
  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    if (op != 0 || live.empty()) {
      const Coord lo = rng.Uniform(0, 1000);
      const Interval iv(lo, lo + rng.Exponential(50, 500));
      const TupleId tid = static_cast<TupleId>(step);
      tree.Insert(iv, tid);
      naive.Insert(Rect(iv, Interval::Point(0)), tid);
      live.emplace_back(iv, tid);
    } else {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      ASSERT_TRUE(naive.Delete(Rect(live[pick].first, Interval::Point(0)),
                               live[pick].second));
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    if (step % 100 == 0) {
      const Coord probe_lo = rng.Uniform(0, 1000);
      const Interval probe(probe_lo, probe_lo + rng.Uniform(0, 100));
      EXPECT_EQ(tree.Overlapping(probe),
                naive.Search(Rect(probe, Interval::Point(0))));
    }
  }
  EXPECT_EQ(tree.size(), live.size());
}

TEST(SegmentTreeTest, StabBasics) {
  SegmentTree tree({0, 10, 20, 30, 40});
  ASSERT_TRUE(tree.Insert(Interval(0, 20), 1).ok());
  ASSERT_TRUE(tree.Insert(Interval(10, 40), 2).ok());
  ASSERT_TRUE(tree.Insert(Interval(20, 20), 3).ok());  // Point interval.
  EXPECT_EQ(tree.Stab(5), (std::vector<TupleId>{1}));
  EXPECT_EQ(tree.Stab(10), (std::vector<TupleId>{1, 2}));
  EXPECT_EQ(tree.Stab(15), (std::vector<TupleId>{1, 2}));
  EXPECT_EQ(tree.Stab(20), (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(tree.Stab(25), (std::vector<TupleId>{2}));
  EXPECT_EQ(tree.Stab(40), (std::vector<TupleId>{2}));
  EXPECT_EQ(tree.Stab(45), std::vector<TupleId>());
  EXPECT_EQ(tree.Stab(-1), std::vector<TupleId>());
}

TEST(SegmentTreeTest, RejectsForeignEndpoints) {
  SegmentTree tree({0, 10, 20});
  EXPECT_FALSE(tree.Insert(Interval(0, 15), 1).ok());
  EXPECT_FALSE(tree.Insert(Interval(5, 10), 1).ok());
  EXPECT_FALSE(tree.Insert(Interval(10, 5), 1).ok());  // Invalid interval.
  EXPECT_EQ(tree.size(), 0u);
}

TEST(SegmentTreeTest, EndpointsDeduplicated) {
  SegmentTree tree({10, 10, 20, 20, 0});
  EXPECT_EQ(tree.endpoint_count(), 3u);
}

TEST(SegmentTreeTest, RandomizedAgainstIntervalTree) {
  // Cross-validate the two geometry structures against each other.
  Rng rng(23);
  std::vector<Coord> endpoints;
  for (int i = 0; i <= 200; ++i) endpoints.push_back(i * 5.0);
  SegmentTree seg(endpoints);
  IntervalTree itree;
  for (int i = 0; i < 1500; ++i) {
    const int a = static_cast<int>(rng.UniformInt(0, 200));
    const int b = static_cast<int>(rng.UniformInt(0, 200));
    const Interval iv(std::min(a, b) * 5.0, std::max(a, b) * 5.0);
    ASSERT_TRUE(seg.Insert(iv, static_cast<TupleId>(i)).ok());
    itree.Insert(iv, static_cast<TupleId>(i));
  }
  for (int probe = 0; probe < 300; ++probe) {
    const Coord point = rng.Uniform(-10, 1010);
    EXPECT_EQ(seg.Stab(point), itree.Stab(point)) << point;
  }
}

}  // namespace
}  // namespace segidx::oracle
