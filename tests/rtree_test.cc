#include "rtree/rtree.h"

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

namespace segidx::rtree {
namespace {

using oracle::NaiveOracle;
using test_util::CheckTree;
using test_util::MakeMemoryPager;
using test_util::Tids;

std::unique_ptr<RTree> MakeTree(storage::Pager* pager,
                                TreeOptions options = TreeOptions()) {
  auto result = RTree::Create(pager, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(RTreeTest, EmptyTreeSearchFindsNothing) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  std::vector<SearchHit> hits;
  uint64_t accesses = 0;
  ASSERT_TRUE(tree->Search(Rect(0, 100, 0, 100), &hits, &accesses).ok());
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(accesses, 1u);  // The (empty) root leaf.
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1);
  EXPECT_TRUE(CheckTree(tree.get()).ok());
}

TEST(RTreeTest, SingleInsertIsFindable) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  ASSERT_TRUE(tree->Insert(Rect(10, 20, 30, 40), 7).ok());
  EXPECT_EQ(tree->size(), 1u);

  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(15, 15, 35, 35), &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tid, 7u);
  EXPECT_EQ(hits[0].rect, Rect(10, 20, 30, 40));

  hits.clear();
  ASSERT_TRUE(tree->Search(Rect(50, 60, 50, 60), &hits).ok());
  EXPECT_TRUE(hits.empty());
}

TEST(RTreeTest, RejectsInvalidRects) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  EXPECT_FALSE(tree->Insert(Rect(10, 5, 0, 1), 1).ok());
  std::vector<SearchHit> hits;
  EXPECT_FALSE(tree->Search(Rect(0, 1, 3, 2), &hits).ok());
}

TEST(RTreeTest, CreateValidatesOptions) {
  auto pager = MakeMemoryPager();
  TreeOptions bad;
  bad.enable_spanning = true;
  EXPECT_FALSE(RTree::Create(pager.get(), bad).ok());
  bad = TreeOptions();
  bad.min_fill_fraction = 0.9;
  EXPECT_FALSE(RTree::Create(pager.get(), bad).ok());
}

TEST(RTreeTest, DuplicateEntriesAllowed) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  const Rect r(1, 2, 3, 4);
  ASSERT_TRUE(tree->Insert(r, 5).ok());
  ASSERT_TRUE(tree->Insert(r, 5).ok());
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(r, &hits).ok());
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RTreeTest, GrowsInHeightAndStaysBalanced) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    const Coord y = rng.Uniform(0, 100000);
    ASSERT_TRUE(tree->Insert(Rect(x, x + 10, y, y + 10), i).ok());
  }
  EXPECT_GE(tree->height(), 3);
  // The structure check validates that all leaves share level 0.
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  auto stats = tree->CollectLevelStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), static_cast<size_t>(tree->height()));
  // Strictly shrinking level populations up the tree; single root on top.
  EXPECT_EQ(stats->back().nodes, 1u);
  for (size_t i = 1; i < stats->size(); ++i) {
    EXPECT_LT((*stats)[i].nodes, (*stats)[i - 1].nodes);
  }
}

// A CRC-valid page claiming a level above the root's (damaged file) must
// fail the per-level walk, not index past its per-level table.
TEST(RTreeTest, LevelStatsRejectsNodeAtWrongLevel) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Insert(Rect::Point(i, i), i).ok());
  }
  ASSERT_EQ(tree->height(), 2);
  const storage::PageId leaf =
      tree->ReadNode(tree->root()).value().branches[0].child;
  {
    auto page = pager->Fetch(leaf);
    ASSERT_TRUE(page.ok());
    Node bogus;
    bogus.level = 5;
    ASSERT_TRUE(bogus.Serialize(page->data(), page->size()).ok());
    page->MarkDirty();
  }
  auto stats = tree->CollectLevelStats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
  EXPECT_NE(stats.status().message().find(
                "block " + std::to_string(leaf.block)),
            std::string::npos)
      << stats.status().ToString();
}

// A checksum-valid branch whose child id names a cached block under the
// wrong size class: search skips that subtree (or fails cleanly), the
// healthy cached page is not quarantined, and nothing aborts.
TEST(RTreeTest, ChildPointerWithWrongSizeClassIsAnError) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Insert(Rect::Point(i, i), i).ok());
  }
  ASSERT_EQ(tree->height(), 2);
  storage::PageId bad;
  {
    auto page = pager->Fetch(tree->root());
    ASSERT_TRUE(page.ok());
    Node root = Node::Deserialize(page->data(), page->size()).value();
    ++root.branches[0].child.size_class;
    bad = root.branches[0].child;
    ASSERT_TRUE(root.Serialize(page->data(), page->size()).ok());
    page->MarkDirty();
  }
  const Rect everything(-1, 101, -1, 101);

  SearchOptions partial;
  partial.allow_partial = true;
  std::vector<SearchHit> hits;
  SearchOutcome outcome;
  ASSERT_TRUE(tree->Search(everything, partial, &hits, &outcome).ok());
  EXPECT_TRUE(outcome.partial);
  EXPECT_EQ(outcome.skipped_subtrees, std::vector<storage::PageId>{bad});
  EXPECT_LT(hits.size(), 100u);
  EXPECT_EQ(pager->quarantined_count(), 0u);

  hits.clear();
  const Status strict = tree->Search(everything, SearchOptions(), &hits,
                                     &outcome);
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument)
      << strict.ToString();
  EXPECT_NE(strict.message().find("block " + std::to_string(bad.block)),
            std::string::npos)
      << strict.ToString();

  EXPECT_FALSE(tree->CollectLevelStats().ok());
}

TEST(RTreeTest, VariableNodeSizeDoublesPerLevel) {
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.double_node_size_per_level = true;
  auto tree = MakeTree(pager.get(), options);
  // Leaf capacity from a 1 KB node, level-1 branch capacity from 2 KB.
  EXPECT_EQ(tree->LeafCapacity(), 25u);
  EXPECT_EQ(tree->BranchCapacity(1), 51u);
  EXPECT_EQ(tree->BranchCapacity(2), 102u);
  EXPECT_EQ(tree->SpanningCapacity(1), 0u);

  TreeOptions fixed;
  fixed.double_node_size_per_level = false;
  auto pager2 = MakeMemoryPager();
  auto tree2 = MakeTree(pager2.get(), fixed);
  EXPECT_EQ(tree2->BranchCapacity(1), 25u);
  EXPECT_EQ(tree2->BranchCapacity(5), 25u);
}

struct OracleCase {
  workload::DatasetKind dataset;
  uint64_t count;
  SplitAlgorithm split;
  uint64_t seed;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << workload::DatasetKindName(c.dataset) << "_n" << c.count << "_"
      << (c.split == SplitAlgorithm::kQuadratic ? "quad"
          : c.split == SplitAlgorithm::kLinear  ? "lin"
                                                : "rstar")
      << "_s" << c.seed;
}

class RTreeOracleTest : public testing::TestWithParam<OracleCase> {};

// The central property: R-Tree search results equal a full scan, for every
// workload shape, including after the tree grows several levels.
TEST_P(RTreeOracleTest, SearchMatchesNaiveOracle) {
  const OracleCase& c = GetParam();
  auto pager = MakeMemoryPager();
  TreeOptions options;
  options.split_algorithm = c.split;
  auto tree = MakeTree(pager.get(), options);
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

  for (double qar : {0.001, 1.0, 1000.0}) {
    const std::vector<Rect> queries =
        workload::GenerateQueries(qar, 1e6, 25, c.seed + 99);
    for (const Rect& query : queries) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RTreeOracleTest,
    testing::Values(
        OracleCase{workload::DatasetKind::kI1, 3000,
                   SplitAlgorithm::kQuadratic, 1},
        OracleCase{workload::DatasetKind::kI2, 3000,
                   SplitAlgorithm::kQuadratic, 2},
        OracleCase{workload::DatasetKind::kI3, 3000,
                   SplitAlgorithm::kQuadratic, 3},
        OracleCase{workload::DatasetKind::kI4, 3000,
                   SplitAlgorithm::kQuadratic, 4},
        OracleCase{workload::DatasetKind::kR1, 3000,
                   SplitAlgorithm::kQuadratic, 5},
        OracleCase{workload::DatasetKind::kR2, 3000,
                   SplitAlgorithm::kQuadratic, 6},
        OracleCase{workload::DatasetKind::kRC2, 3000,
                   SplitAlgorithm::kQuadratic, 7},
        OracleCase{workload::DatasetKind::kI3, 3000, SplitAlgorithm::kLinear,
                   8},
        OracleCase{workload::DatasetKind::kR2, 3000, SplitAlgorithm::kLinear,
                   9},
        OracleCase{workload::DatasetKind::kI1, 200,
                   SplitAlgorithm::kQuadratic, 10},
        OracleCase{workload::DatasetKind::kR2, 60,
                   SplitAlgorithm::kQuadratic, 11},
        OracleCase{workload::DatasetKind::kR2, 3000, SplitAlgorithm::kRStar,
                   12},
        OracleCase{workload::DatasetKind::kI3, 3000, SplitAlgorithm::kRStar,
                   13}),
    testing::PrintToStringParamName());

TEST(RTreeTest, SearchVisitsFewNodesForPointQueries) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const Coord x = rng.Uniform(0, 100000);
    const Coord y = rng.Uniform(0, 100000);
    ASSERT_TRUE(tree->Insert(Rect(x, x + 5, y, y + 5), i).ok());
  }
  auto stats = tree->CollectLevelStats();
  ASSERT_TRUE(stats.ok());
  uint64_t total_nodes = 0;
  for (const RTree::LevelStats& level : *stats) total_nodes += level.nodes;

  std::vector<SearchHit> hits;
  uint64_t accesses = 0;
  ASSERT_TRUE(
      tree->Search(Rect::Point(50000, 50000), &hits, &accesses).ok());
  // A point query must touch far fewer nodes than the whole index.
  EXPECT_LT(accesses, total_nodes / 5);
  EXPECT_GE(accesses, static_cast<uint64_t>(tree->height()));
}

TEST(RTreeTest, DeleteRemovesExactlyOneEntry) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  const Rect r(1, 2, 3, 4);
  ASSERT_TRUE(tree->Insert(r, 5).ok());
  ASSERT_TRUE(tree->Insert(r, 5).ok());
  ASSERT_TRUE(tree->Delete(r, 5).ok());
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(r, &hits).ok());
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_EQ(tree->size(), 1u);
}

TEST(RTreeTest, DeleteMissingEntryReturnsNotFound) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  ASSERT_TRUE(tree->Insert(Rect(1, 2, 3, 4), 5).ok());
  EXPECT_EQ(tree->Delete(Rect(1, 2, 3, 4), 6).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Delete(Rect(9, 10, 3, 4), 5).code(),
            StatusCode::kNotFound);
}

TEST(RTreeTest, DeleteHalfThenSearchMatchesOracle) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  NaiveOracle oracle;
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kR1;
  spec.count = 2000;
  spec.seed = 12;
  const std::vector<Rect> data = workload::GenerateDataset(spec);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data[i], i).ok());
    oracle.Insert(data[i], i);
  }
  for (size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree->Delete(data[i], i).ok()) << i;
    oracle.Delete(data[i], i);
  }
  EXPECT_EQ(tree->size(), 1000u);
  ASSERT_TRUE(CheckTree(tree.get()).ok());

  const std::vector<Rect> queries = workload::GenerateQueries(1, 1e6, 50, 77);
  for (const Rect& query : queries) {
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(query, &hits).ok());
    EXPECT_EQ(Tids(hits), oracle.Search(query));
  }
}

TEST(RTreeTest, DeleteEverythingShrinksToEmptyRoot) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  std::vector<Rect> rects;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const Coord x = rng.Uniform(0, 1000);
    const Coord y = rng.Uniform(0, 1000);
    rects.push_back(Rect(x, x + 1, y, y + 1));
    ASSERT_TRUE(tree->Insert(rects.back(), i).ok());
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->Delete(rects[static_cast<size_t>(i)], i).ok()) << i;
  }
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1);
  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(0, 1000, 0, 1000), &hits).ok());
  EXPECT_TRUE(hits.empty());
  ASSERT_TRUE(CheckTree(tree.get()).ok());
}

TEST(RTreeTest, PersistsAcrossReopen) {
  const std::string path = testing::TempDir() + "/rtree_persist";
  std::remove(path.c_str());
  storage::PagerOptions pager_options;
  std::vector<Rect> data;
  {
    auto device = storage::FileBlockDevice::Open(path, true).value();
    auto pager =
        storage::Pager::Create(std::move(device), pager_options).value();
    auto tree = MakeTree(pager.get());
    workload::DatasetSpec spec;
    spec.kind = workload::DatasetKind::kI1;
    spec.count = 1500;
    spec.seed = 21;
    data = workload::GenerateDataset(spec);
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(tree->Insert(data[i], i).ok());
    }
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto device = storage::FileBlockDevice::Open(path, false).value();
    auto pager =
        storage::Pager::Open(std::move(device), pager_options).value();
    auto reopened = RTree::Open(pager.get());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto tree = std::move(reopened).value();
    EXPECT_EQ(tree->size(), 1500u);
    ASSERT_TRUE(CheckTree(tree.get()).ok());

    NaiveOracle oracle;
    for (size_t i = 0; i < data.size(); ++i) oracle.Insert(data[i], i);
    for (const Rect& query : workload::GenerateQueries(1, 1e6, 30, 5)) {
      std::vector<SearchHit> hits;
      ASSERT_TRUE(tree->Search(query, &hits).ok());
      EXPECT_EQ(Tids(hits), oracle.Search(query));
    }
  }
}

TEST(RTreeTest, InsertAfterReopenKeepsWorking) {
  const std::string path = testing::TempDir() + "/rtree_reopen_insert";
  std::remove(path.c_str());
  storage::PagerOptions pager_options;
  {
    auto pager = storage::Pager::Create(
                     storage::FileBlockDevice::Open(path, true).value(),
                     pager_options)
                     .value();
    auto tree = MakeTree(pager.get());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          tree->Insert(Rect(i * 10.0, i * 10.0 + 5, 0, 5), i).ok());
    }
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto pager = storage::Pager::Open(
                     storage::FileBlockDevice::Open(path, false).value(),
                     pager_options)
                     .value();
    auto tree = RTree::Open(pager.get()).value();
    for (int i = 100; i < 200; ++i) {
      ASSERT_TRUE(
          tree->Insert(Rect(i * 10.0, i * 10.0 + 5, 0, 5), i).ok());
    }
    EXPECT_EQ(tree->size(), 200u);
    ASSERT_TRUE(CheckTree(tree.get()).ok());
    std::vector<SearchHit> hits;
    ASSERT_TRUE(tree->Search(Rect(0, 2000, 0, 5), &hits).ok());
    EXPECT_EQ(hits.size(), 200u);
  }
}

TEST(RTreeTest, StatsTrackOperations) {
  auto pager = MakeMemoryPager();
  auto tree = MakeTree(pager.get());
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const Coord x = rng.Uniform(0, 1000);
    ASSERT_TRUE(tree->Insert(Rect(x, x + 1, x, x + 1), i).ok());
  }
  EXPECT_EQ(tree->stats().inserts, 200u);
  EXPECT_GT(tree->stats().leaf_splits, 0u);
  EXPECT_GT(tree->stats().insert_node_accesses, 200u);

  std::vector<SearchHit> hits;
  ASSERT_TRUE(tree->Search(Rect(0, 1000, 0, 1000), &hits).ok());
  EXPECT_EQ(tree->stats().searches, 1u);
  EXPECT_GT(tree->stats().search_node_accesses, 0u);

  tree->ResetStats();
  EXPECT_EQ(tree->stats().inserts, 0u);
}

}  // namespace
}  // namespace segidx::rtree
