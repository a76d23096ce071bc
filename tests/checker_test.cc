// StructureChecker validation: clean trees of every kind pass the full
// check, and a deliberately injected corruption of each invariant class is
// reported as exactly that violation kind. Corruptions are injected by
// rewriting node pages in place through the pager (checksums are recomputed
// by Node::Serialize, so the damage is semantic, not a bad checksum).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/structure_checker.h"
#include "core/interval_index.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/pager.h"

namespace segidx {
namespace {

using check::CheckOptions;
using check::CheckReport;
using check::StructureChecker;
using check::ViolationKind;
using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;
using rtree::Node;
using storage::PageId;

using Records = std::vector<std::pair<Rect, TupleId>>;

// A deterministic mixed workload: grid rectangles with positive extent in
// both dimensions, plus domain-spanning slabs that force spanning records
// (and cutting) in SR-Trees.
Records MixedRecords(int n) {
  Records records;
  for (int i = 0; i < n; ++i) {
    const double x = (i % 40) * 250.0;
    const double y = (i / 40) * 400.0;
    if (i % 10 == 7) {
      records.emplace_back(Rect(-500, 10500, y, y + 20),
                           static_cast<TupleId>(i));
    } else {
      records.emplace_back(Rect(x, x + 200, y, y + 300),
                           static_cast<TupleId>(i));
    }
  }
  return records;
}

std::unique_ptr<IntervalIndex> BuildIndex(IndexKind kind,
                                          const Records& records) {
  IndexOptions options;
  options.skeleton.expected_tuples = records.size();
  options.skeleton.prediction_sample = records.size() / 4 + 1;
  auto index = IntervalIndex::CreateInMemory(kind, options).value();
  for (const auto& [rect, tid] : records) {
    EXPECT_TRUE(index->Insert(rect, tid).ok());
  }
  EXPECT_TRUE(index->Finalize().ok());
  return index;
}

Node ReadNode(rtree::RTree* tree, PageId id) {
  return tree->ReadNode(id).value();
}

// Serializes `node` back onto its extent; the page checksum is recomputed,
// so only the injected semantic damage is visible to the checker.
void RewriteNode(storage::Pager* pager, PageId id, const Node& node) {
  auto handle = pager->Fetch(id).value();
  ASSERT_TRUE(node.Serialize(handle.data(), handle.size()).ok());
  handle.MarkDirty();
}

// First leaf found on the left spine.
PageId FindLeaf(rtree::RTree* tree) {
  PageId id = tree->root();
  Node node = ReadNode(tree, id);
  while (!node.is_leaf()) {
    id = node.branches.front().child;
    node = ReadNode(tree, id);
  }
  return id;
}

// Any node holding at least one spanning record; invalid() if none exist.
PageId FindSpanningNode(rtree::RTree* tree) {
  std::vector<PageId> stack = {tree->root()};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    const Node node = ReadNode(tree, id);
    if (!node.spanning.empty()) return id;
    if (!node.is_leaf()) {
      for (const auto& b : node.branches) stack.push_back(b.child);
    }
  }
  return PageId();
}

CheckReport Check(IntervalIndex* index, const CheckOptions& options = {}) {
  return index->CheckStructure(options).value();
}

// Every violation in `report` is of `kind`, and there is at least one.
void ExpectOnly(const CheckReport& report, ViolationKind kind) {
  EXPECT_GE(report.CountOf(kind), 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(kind), report.violations.size())
      << report.ToString();
}

TEST(StructureCheckerTest, CleanTreesOfEveryKindPassTheFullCheck) {
  const Records records = MixedRecords(600);
  for (const IndexKind kind :
       {IndexKind::kRTree, IndexKind::kSRTree, IndexKind::kSkeletonRTree,
        IndexKind::kSkeletonSRTree}) {
    auto index = BuildIndex(kind, records);
    CheckOptions options;
    options.expected_records = &records;
    const CheckReport report = Check(index.get(), options);
    EXPECT_TRUE(report.ok())
        << core::IndexKindName(kind) << ":\n" << report.ToString();
    EXPECT_GT(report.nodes_visited, 1u);
    if (core::IsSegment(kind)) {
      EXPECT_GT(report.spanning_records, 0u) << core::IndexKindName(kind);
    }
  }
}

TEST(StructureCheckerTest, PureInsertTreeSatisfiesMinFillAndTightness) {
  // A plain R-Tree grown by splits alone keeps Guttman's minimum fill and
  // tight MBRs, so the strict options must pass before any corruption.
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  CheckOptions options;
  options.expect_min_fill = true;
  options.check_mbr_tightness = true;
  const CheckReport report = Check(index.get(), options);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(StructureCheckerTest, LooseMbrIsReported) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  Node root = ReadNode(tree, tree->root());
  ASSERT_FALSE(root.is_leaf());
  // Shrink one branch region to its lower corner: the subtree's entries now
  // escape the recorded region.
  Rect& r = root.branches.front().rect;
  r = Rect(Interval::Point(r.x.lo), Interval::Point(r.y.lo));
  RewriteNode(index->pager(), tree->root(), root);

  ExpectOnly(Check(index.get()), ViolationKind::kMbrNotContained);
}

TEST(StructureCheckerTest, SlackMbrIsReportedOnlyUnderTightness) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  Node root = ReadNode(tree, tree->root());
  ASSERT_FALSE(root.is_leaf());
  ASSERT_GE(root.branches.size(), 2u);
  // Inflate one branch region to the whole root region: still contains its
  // subtree (no containment violation), but no longer the tight MBR.
  root.branches.front().rect = tree->root_region();
  RewriteNode(index->pager(), tree->root(), root);

  EXPECT_TRUE(Check(index.get()).ok());
  CheckOptions tight;
  tight.check_mbr_tightness = true;
  ExpectOnly(Check(index.get(), tight), ViolationKind::kMbrNotTight);
}

TEST(StructureCheckerTest, BrokenSpanningLinkIsReported) {
  auto index = BuildIndex(IndexKind::kSRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  const PageId id = FindSpanningNode(tree);
  ASSERT_TRUE(id.valid()) << "workload produced no spanning records";
  Node node = ReadNode(tree, id);
  PageId bogus;
  bogus.block = 12345678;
  node.spanning.front().linked_child = bogus.Encode();
  RewriteNode(index->pager(), id, node);

  ExpectOnly(Check(index.get()), ViolationKind::kSpanningBrokenLink);
}

TEST(StructureCheckerTest, NonSpanningRecordIsReported) {
  auto index = BuildIndex(IndexKind::kSRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  const PageId id = FindSpanningNode(tree);
  ASSERT_TRUE(id.valid());
  Node node = ReadNode(tree, id);
  auto& entry = node.spanning.front();
  const int branch = node.FindBranch(PageId::Decode(entry.linked_child));
  ASSERT_GE(branch, 0);
  const Rect& region = node.branches[branch].rect;
  ASSERT_TRUE(region.x.length() > 0 && region.y.length() > 0);
  // A point strictly inside the linked branch region spans it in neither
  // dimension.
  entry.rect = Rect::Point(region.x.center(), region.y.center());
  RewriteNode(index->pager(), id, node);

  ExpectOnly(Check(index.get()), ViolationKind::kSpanningNotSpanning);
}

TEST(StructureCheckerTest, EscapedSpanningRecordIsReported) {
  auto index = BuildIndex(IndexKind::kSRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  const PageId id = FindSpanningNode(tree);
  ASSERT_TRUE(id.valid());
  Node node = ReadNode(tree, id);
  // Stretch the record across the whole node region and beyond: it still
  // spans its linked branch, but escapes the node's recorded region.
  const Rect wide(tree->root_region().x.lo - 1e6,
                  tree->root_region().x.hi + 1e6,
                  tree->root_region().y.lo - 1e6,
                  tree->root_region().y.hi + 1e6);
  node.spanning.front().rect = wide;
  RewriteNode(index->pager(), id, node);

  const CheckReport report = Check(index.get());
  EXPECT_GE(report.CountOf(ViolationKind::kSpanningNotContained), 1u)
      << report.ToString();
}

TEST(StructureCheckerTest, OverlappingRemnantsAreReported) {
  const Records records = MixedRecords(600);
  auto index = BuildIndex(IndexKind::kSRTree, records);
  rtree::RTree* tree = index->tree();
  // Find a leaf with spare capacity holding a full-dimensional piece and
  // duplicate that piece: the tuple's stored pieces now overlap.
  std::vector<PageId> stack = {tree->root()};
  bool injected = false;
  while (!stack.empty() && !injected) {
    const PageId id = stack.back();
    stack.pop_back();
    Node node = ReadNode(tree, id);
    if (!node.is_leaf()) {
      for (const auto& b : node.branches) stack.push_back(b.child);
      continue;
    }
    if (node.records.size() + 1 > tree->LeafCapacity()) continue;
    for (const auto& entry : node.records) {
      if (entry.rect.x.length() > 0 && entry.rect.y.length() > 0) {
        node.records.push_back(entry);
        RewriteNode(index->pager(), id, node);
        injected = true;
        break;
      }
    }
  }
  ASSERT_TRUE(injected);

  CheckOptions options;
  options.expected_records = &records;
  ExpectOnly(Check(index.get(), options), ViolationKind::kRemnantOverlap);
}

TEST(StructureCheckerTest, MissingRemnantIsReported) {
  const Records records = MixedRecords(600);
  auto index = BuildIndex(IndexKind::kSRTree, records);
  rtree::RTree* tree = index->tree();
  const PageId id = FindLeaf(tree);
  Node node = ReadNode(tree, id);
  ASSERT_FALSE(node.records.empty());
  node.records.pop_back();
  RewriteNode(index->pager(), id, node);

  CheckOptions options;
  options.expected_records = &records;
  ExpectOnly(Check(index.get(), options), ViolationKind::kRemnantGap);
}

TEST(StructureCheckerTest, UnexpectedAndMissingRecordsAreReported) {
  Records records = MixedRecords(400);
  auto index = BuildIndex(IndexKind::kRTree, records);
  // Drop one record from the expected set: its stored piece becomes
  // unexpected, and the totals disagree.
  records.pop_back();
  CheckOptions options;
  options.expected_records = &records;
  const CheckReport report = Check(index.get(), options);
  EXPECT_GE(report.CountOf(ViolationKind::kUnexpectedRecord), 1u)
      << report.ToString();
  EXPECT_EQ(report.CountOf(ViolationKind::kRecordCountMismatch), 1u)
      << report.ToString();
}

TEST(StructureCheckerTest, WrongNodeSizeClassIsReported) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  Node root = ReadNode(tree, tree->root());
  ASSERT_FALSE(root.is_leaf());
  // Claim the first child sits on a differently-sized extent than its level
  // dictates (Section 2.1.2 doubling).
  root.branches.front().child.size_class ^= 1;
  RewriteNode(index->pager(), tree->root(), root);

  ExpectOnly(Check(index.get()), ViolationKind::kWrongSizeClass);
}

TEST(StructureCheckerTest, WrongLevelIsReportedAsUnbalanced) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  const PageId id = FindLeaf(tree);
  Node node = ReadNode(tree, id);
  node.level = 1;  // A leaf claiming to be a branch level.
  node.records.clear();
  RewriteNode(index->pager(), id, node);

  const CheckReport report = Check(index.get());
  EXPECT_GE(report.CountOf(ViolationKind::kUnbalancedTree), 1u)
      << report.ToString();
}

TEST(StructureCheckerTest, BelowMinFillIsReportedOnlyWhenRequested) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  const PageId id = FindLeaf(tree);
  Node node = ReadNode(tree, id);
  ASSERT_GT(node.records.size(), 1u);
  node.records.resize(1);
  RewriteNode(index->pager(), id, node);

  EXPECT_TRUE(Check(index.get()).ok());
  CheckOptions strict;
  strict.expect_min_fill = true;
  ExpectOnly(Check(index.get(), strict), ViolationKind::kBelowMinFill);
}

TEST(StructureCheckerTest, LeakedExtentIsReportedAsOrphaned) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(400));
  {
    auto leaked = index->pager()->Allocate(0).value();
    leaked.Release();  // Allocated, never linked into the tree or freed.
  }
  ExpectOnly(Check(index.get()), ViolationKind::kPageOrphaned);
}

TEST(StructureCheckerTest, DoublyReferencedChildIsReported) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(600));
  rtree::RTree* tree = index->tree();
  Node root = ReadNode(tree, tree->root());
  ASSERT_FALSE(root.is_leaf());
  ASSERT_LT(root.branches.size(), tree->BranchCapacity(root.level));
  root.branches.push_back(root.branches.front());
  RewriteNode(index->pager(), tree->root(), root);

  ExpectOnly(Check(index.get()), ViolationKind::kPageDoublyReferenced);
}

TEST(StructureCheckerTest, InvalidRootRegionUnderRecordsIsReported) {
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(400));
  ASSERT_TRUE(index->Commit().ok());
  // The tree metadata leads the pager's user metadata; byte 56 holds its
  // flags, bit 2 of which marks the root region valid
  // (docs/FILE_FORMAT.md). Clear it and reload the tree from the pager.
  std::vector<uint8_t> meta = index->pager()->user_meta();
  ASSERT_GE(meta.size(), rtree::RTree::kTreeMetaBytes);
  meta[56] &= static_cast<uint8_t>(~4u);
  ASSERT_TRUE(index->pager()->SetUserMeta(meta.data(), meta.size()).ok());
  auto reloaded = rtree::RTree::Open(index->pager()).value();
  ASSERT_GT(reloaded->size(), 0u);
  ASSERT_FALSE(reloaded->root_region_valid());

  ExpectOnly(StructureChecker(reloaded.get()).Check().value(),
             ViolationKind::kMbrNotContained);
}

TEST(StructureCheckerTest, QuickInvariantsCatchDeepDamage) {
  // IntervalIndex::CheckInvariants is the full walk reduced to its first
  // violation, so page-level damage surfaces through the facade.
  auto index = BuildIndex(IndexKind::kRTree, MixedRecords(400));
  {
    auto leaked = index->pager()->Allocate(0).value();
    leaked.Release();
  }
  const Status st = index->CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("PAGE_ORPHANED"), std::string::npos)
      << st.ToString();
}

// --- skeleton grid validation -------------------------------------------

rtree::SkeletonSpec TwoLevelSpec() {
  rtree::SkeletonSpec spec;
  spec.levels.resize(2);
  spec.levels[0].x_bounds = {0, 25, 50, 75, 100};
  spec.levels[0].y_bounds = {0, 50, 100};
  spec.levels[1].x_bounds = {0, 50, 100};
  spec.levels[1].y_bounds = {0, 100};
  return spec;
}

TEST(StructureCheckerTest, ValidSkeletonSpecPasses) {
  EXPECT_TRUE(
      StructureChecker::CheckSpec(TwoLevelSpec(), Rect(0, 100, 0, 100)).ok());
}

TEST(StructureCheckerTest, NonIncreasingSpecBoundsAreRejected) {
  rtree::SkeletonSpec spec = TwoLevelSpec();
  spec.levels[0].x_bounds[2] = spec.levels[0].x_bounds[1];
  EXPECT_FALSE(
      StructureChecker::CheckSpec(spec, Rect(0, 100, 0, 100)).ok());
}

TEST(StructureCheckerTest, NonNestedSpecBoundsAreRejected) {
  rtree::SkeletonSpec spec = TwoLevelSpec();
  spec.levels[1].x_bounds = {0, 40, 100};  // 40 is not a leaf boundary.
  EXPECT_FALSE(
      StructureChecker::CheckSpec(spec, Rect(0, 100, 0, 100)).ok());
}

TEST(StructureCheckerTest, SpecNotCoveringDomainIsRejected) {
  EXPECT_FALSE(
      StructureChecker::CheckSpec(TwoLevelSpec(), Rect(0, 200, 0, 100)).ok());
}

}  // namespace
}  // namespace segidx
