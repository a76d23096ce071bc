#include "check/structure_checker.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "rtree/node.h"

namespace segidx::check {

using rtree::BranchEntry;
using rtree::LeafEntry;
using rtree::Node;
using rtree::SpanningEntry;
using storage::PageId;

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNodeReadFailed:
      return "NODE_READ_FAILED";
    case ViolationKind::kUnbalancedTree:
      return "UNBALANCED_TREE";
    case ViolationKind::kLeafOverflow:
      return "LEAF_OVERFLOW";
    case ViolationKind::kBranchOverflow:
      return "BRANCH_OVERFLOW";
    case ViolationKind::kNodeBytesOverflow:
      return "NODE_BYTES_OVERFLOW";
    case ViolationKind::kBelowMinFill:
      return "BELOW_MIN_FILL";
    case ViolationKind::kInvalidRect:
      return "INVALID_RECT";
    case ViolationKind::kWrongSizeClass:
      return "WRONG_SIZE_CLASS";
    case ViolationKind::kMbrNotContained:
      return "MBR_NOT_CONTAINED";
    case ViolationKind::kMbrNotTight:
      return "MBR_NOT_TIGHT";
    case ViolationKind::kSpanningInPlainTree:
      return "SPANNING_IN_PLAIN_TREE";
    case ViolationKind::kSpanningNotContained:
      return "SPANNING_NOT_CONTAINED";
    case ViolationKind::kSpanningBrokenLink:
      return "SPANNING_BROKEN_LINK";
    case ViolationKind::kSpanningNotSpanning:
      return "SPANNING_NOT_SPANNING";
    case ViolationKind::kSpanningQuotaExceeded:
      return "SPANNING_QUOTA_EXCEEDED";
    case ViolationKind::kSpanningNotHighest:
      return "SPANNING_NOT_HIGHEST";
    case ViolationKind::kRemnantOverlap:
      return "REMNANT_OVERLAP";
    case ViolationKind::kRemnantGap:
      return "REMNANT_GAP";
    case ViolationKind::kRemnantOutsideOriginal:
      return "REMNANT_OUTSIDE_ORIGINAL";
    case ViolationKind::kUnexpectedRecord:
      return "UNEXPECTED_RECORD";
    case ViolationKind::kRecordCountMismatch:
      return "RECORD_COUNT_MISMATCH";
    case ViolationKind::kPageDoublyReferenced:
      return "PAGE_DOUBLY_REFERENCED";
    case ViolationKind::kPageOrphaned:
      return "PAGE_ORPHANED";
    case ViolationKind::kPageOutOfBounds:
      return "PAGE_OUT_OF_BOUNDS";
    case ViolationKind::kFreeListCorrupt:
      return "FREE_LIST_CORRUPT";
  }
  return "UNKNOWN";
}

std::string Violation::ToString() const {
  std::string out = ViolationKindName(kind);
  if (page.valid()) {
    out += " @page " + std::to_string(page.block);
  }
  if (tid != kInvalidTupleId) {
    out += " tid=" + std::to_string(tid);
  }
  out += ": " + message;
  return out;
}

bool CheckReport::Has(ViolationKind kind) const {
  for (const Violation& v : violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

size_t CheckReport::CountOf(ViolationKind kind) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

Status CheckReport::ToStatus() const {
  if (ok()) return Status::OK();
  std::string message = violations.front().ToString();
  if (violations.size() > 1) {
    message += " (+" + std::to_string(violations.size() - 1) +
               (truncated ? "+ further violations)" : " further violations)");
  }
  return InternalError(std::move(message));
}

std::string CheckReport::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu violation(s)%s; %llu nodes, %llu leaf records, "
                "%llu spanning records, %llu reachable / %llu free extents\n",
                violations.size(), truncated ? " (truncated)" : "",
                static_cast<unsigned long long>(nodes_visited),
                static_cast<unsigned long long>(leaf_records),
                static_cast<unsigned long long>(spanning_records),
                static_cast<unsigned long long>(reachable_extents),
                static_cast<unsigned long long>(free_extents));
  std::string out = buf;
  for (const Violation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  return out;
}

StructureChecker::StructureChecker(rtree::RTree* tree, CheckOptions options)
    : tree_(tree), options_(options) {
  SEGIDX_CHECK(tree != nullptr);
}

void StructureChecker::Report(ViolationKind kind, PageId page, TupleId tid,
                              std::string message) {
  if (report_.violations.size() >= options_.max_violations) {
    report_.truncated = true;
    return;
  }
  report_.violations.push_back(
      Violation{kind, page, tid, std::move(message)});
}

namespace {

// Measure of `r` over the dimensions in which `original` has extent: the
// natural volume for full-dimensional records, length for records that are
// degenerate segments. Pieces of a cut record are compared in the measure
// of the record they came from.
double MeasureLike(const Rect& original, const Rect& r) {
  double m = 1.0;
  bool any = false;
  if (original.x.length() > 0) {
    m *= r.x.length();
    any = true;
  }
  if (original.y.length() > 0) {
    m *= r.y.length();
    any = true;
  }
  return any ? m : 0.0;
}

// Whether two pieces of `original` overlap in more than a shared boundary.
// Dimensions in which the original is a point are ignored (every piece
// coincides there by construction).
bool PiecesOverlap(const Rect& original, const Rect& a, const Rect& b) {
  const Rect i = a.Intersect(b);
  if (!i.valid()) return false;
  if (original.x.length() > 0 && i.x.length() <= 0) return false;
  if (original.y.length() > 0 && i.y.length() <= 0) return false;
  return true;
}

}  // namespace

Result<CheckReport> StructureChecker::Check() {
  struct Frame {
    PageId id;
    Rect region;
    int expected_level;
    bool is_root;
  };

  const uint64_t allocated = tree_->pager()->allocated_blocks();
  const bool collect_pieces = options_.expected_records != nullptr;

  if (!tree_->root_region_valid() && tree_->size() != 0) {
    Report(ViolationKind::kMbrNotContained, tree_->root(), kInvalidTupleId,
           "tree holds " + std::to_string(tree_->size()) +
               " records but its root region is marked invalid");
  }

  std::vector<Frame> stack;
  stack.push_back(Frame{tree_->root(), tree_->root_region(),
                        tree_->height() - 1, /*is_root=*/true});
  // Nodes whose subtrees we could not enter; page accounting would then
  // misreport their descendants as orphans, so it is skipped.
  bool subtree_skipped = false;

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();

    if (!frame.id.valid() || frame.id.block < storage::kFirstDataBlock ||
        frame.id.block >= allocated) {
      Report(ViolationKind::kPageOutOfBounds, frame.id, kInvalidTupleId,
             "referenced block " + std::to_string(frame.id.block) +
                 " is outside the allocated range [" +
                 std::to_string(storage::kFirstDataBlock) + ", " +
                 std::to_string(allocated) + ")");
      subtree_skipped = true;
      continue;
    }
    if (!reachable_.emplace(frame.id.block, frame.id.size_class).second) {
      Report(ViolationKind::kPageDoublyReferenced, frame.id, kInvalidTupleId,
             "extent is referenced by more than one branch");
      subtree_skipped = true;  // Do not walk (or count) a subtree twice.
      continue;
    }
    const uint8_t expected_class =
        tree_->SizeClassForLevel(frame.expected_level);
    if (frame.id.size_class != expected_class) {
      Report(ViolationKind::kWrongSizeClass, frame.id, kInvalidTupleId,
             "extent has size class " + std::to_string(frame.id.size_class) +
                 " but level " + std::to_string(frame.expected_level) +
                 " nodes use size class " + std::to_string(expected_class));
      // Fetching under a wrong size class would read the wrong byte range
      // (and trips the pager's cache consistency check); stop here.
      subtree_skipped = true;
      continue;
    }

    Result<Node> read = tree_->ReadNode(frame.id);
    if (!read.ok()) {
      Report(ViolationKind::kNodeReadFailed, frame.id, kInvalidTupleId,
             read.status().ToString());
      subtree_skipped = true;
      continue;
    }
    const Node& node = *read;
    ++report_.nodes_visited;

    if (node.level != frame.expected_level) {
      Report(ViolationKind::kUnbalancedTree, frame.id, kInvalidTupleId,
             "node has level " + std::to_string(node.level) +
                 " at depth where level " +
                 std::to_string(frame.expected_level) + " was expected");
    }

    CheckNode(frame.id, node, frame.region, frame.is_root);

    if (node.is_leaf()) {
      report_.leaf_records += node.records.size();
      if (collect_pieces) {
        for (const LeafEntry& e : node.records) {
          pieces_[e.tid].push_back(e.rect);
        }
      }
    } else {
      report_.spanning_records += node.spanning.size();
      if (collect_pieces) {
        for (const SpanningEntry& s : node.spanning) {
          pieces_[s.tid].push_back(s.rect);
        }
      }
      for (const BranchEntry& b : node.branches) {
        stack.push_back(
            Frame{b.child, b.rect, node.level - 1, /*is_root=*/false});
      }
    }
  }
  report_.reachable_extents = reachable_.size();

  if (options_.expected_records != nullptr) CheckRecordTiling();
  if (options_.check_page_accounting && !subtree_skipped) {
    CheckPageAccounting();
  }
  return std::move(report_);
}

void StructureChecker::CheckNode(PageId id, const Node& node,
                                 const Rect& region, bool is_root) {
  const bool region_known = !is_root || tree_->root_region_valid();
  const rtree::TreeOptions& opts = tree_->options();

  if (node.is_leaf()) {
    if (node.records.size() > tree_->LeafCapacity()) {
      Report(ViolationKind::kLeafOverflow, id, kInvalidTupleId,
             std::to_string(node.records.size()) +
                 " records exceed leaf capacity " +
                 std::to_string(tree_->LeafCapacity()));
    }
    if (options_.expect_min_fill && !is_root) {
      const size_t min_fill = std::max<size_t>(
          1, static_cast<size_t>(opts.min_fill_fraction *
                                 static_cast<double>(tree_->LeafCapacity())));
      if (node.records.size() < min_fill) {
        Report(ViolationKind::kBelowMinFill, id, kInvalidTupleId,
               std::to_string(node.records.size()) + " records < minimum " +
                   std::to_string(min_fill));
      }
    }
    for (const LeafEntry& e : node.records) {
      if (!e.rect.valid()) {
        Report(ViolationKind::kInvalidRect, id, e.tid,
               "leaf record rect " + e.rect.ToString() + " is invalid");
        continue;
      }
      if (region_known && !region.Contains(e.rect)) {
        Report(ViolationKind::kMbrNotContained, id, e.tid,
               "leaf record " + e.rect.ToString() + " escapes node region " +
                   region.ToString());
      }
    }
  } else {
    if (node.branches.empty() && !is_root) {
      Report(ViolationKind::kBelowMinFill, id, kInvalidTupleId,
             "non-leaf node has no branches");
    }
    if (node.branches.size() > tree_->BranchCapacity(node.level)) {
      Report(ViolationKind::kBranchOverflow, id, kInvalidTupleId,
             std::to_string(node.branches.size()) +
                 " branches exceed capacity " +
                 std::to_string(tree_->BranchCapacity(node.level)));
    }
    if (node.SerializedBytes() > tree_->NodeBytes(node.level)) {
      Report(ViolationKind::kNodeBytesOverflow, id, kInvalidTupleId,
             std::to_string(node.SerializedBytes()) +
                 " serialized bytes exceed the extent's " +
                 std::to_string(tree_->NodeBytes(node.level)));
    }
    if (options_.expect_min_fill) {
      const size_t min_fill =
          is_root ? 2
                  : std::max<size_t>(
                        1, static_cast<size_t>(
                               opts.min_fill_fraction *
                               static_cast<double>(
                                   tree_->BranchCapacity(node.level))));
      if (node.branches.size() < min_fill) {
        Report(ViolationKind::kBelowMinFill, id, kInvalidTupleId,
               std::to_string(node.branches.size()) + " branches < minimum " +
                   std::to_string(min_fill));
      }
    }
    for (const BranchEntry& b : node.branches) {
      if (!b.rect.valid()) {
        Report(ViolationKind::kInvalidRect, id, kInvalidTupleId,
               "branch rect " + b.rect.ToString() + " is invalid");
        continue;
      }
      if (region_known && !region.Contains(b.rect)) {
        Report(ViolationKind::kMbrNotContained, id, kInvalidTupleId,
               "branch region " + b.rect.ToString() +
                   " (child page " + std::to_string(b.child.block) +
                   ") escapes node region " + region.ToString());
      }
    }
    CheckSpanningEntries(id, node, region, is_root);
  }

  if (options_.check_mbr_tightness && region_known &&
      node.entry_count() > 0) {
    const Rect mbr = node.ComputeMbr();
    if (!(mbr == region)) {
      Report(ViolationKind::kMbrNotTight, id, kInvalidTupleId,
             "node region " + region.ToString() +
                 " is not the tight MBR " + mbr.ToString());
    }
  }
}

void StructureChecker::CheckSpanningEntries(PageId id, const Node& node,
                                            const Rect& region,
                                            bool is_root) {
  const rtree::TreeOptions& opts = tree_->options();
  const bool region_known = !is_root || tree_->root_region_valid();

  if (node.spanning.empty()) return;
  if (!opts.enable_spanning) {
    Report(ViolationKind::kSpanningInPlainTree, id, kInvalidTupleId,
           std::to_string(node.spanning.size()) +
               " spanning records on a tree with spanning disabled");
    return;
  }
  if (options_.check_spanning_quota &&
      opts.spanning_overflow_policy !=
          rtree::SpanningOverflowPolicy::kSplit &&
      node.spanning.size() > tree_->SpanningCapacity(node.level)) {
    Report(ViolationKind::kSpanningQuotaExceeded, id, kInvalidTupleId,
           std::to_string(node.spanning.size()) +
               " spanning records exceed the quota of " +
               std::to_string(tree_->SpanningCapacity(node.level)));
  }

  for (const SpanningEntry& s : node.spanning) {
    if (!s.rect.valid()) {
      Report(ViolationKind::kInvalidRect, id, s.tid,
             "spanning rect " + s.rect.ToString() + " is invalid");
      continue;
    }
    if (region_known && !region.Contains(s.rect)) {
      Report(ViolationKind::kSpanningNotContained, id, s.tid,
             "spanning record " + s.rect.ToString() +
                 " escapes node region " + region.ToString());
    }
    const int branch = node.FindBranch(PageId::Decode(s.linked_child));
    if (branch < 0) {
      Report(ViolationKind::kSpanningBrokenLink, id, s.tid,
             "linked child page " +
                 std::to_string(PageId::Decode(s.linked_child).block) +
                 " is not a branch of this node");
    } else if (!s.rect.SpansRegion(node.branches[branch].rect)) {
      Report(ViolationKind::kSpanningNotSpanning, id, s.tid,
             "record " + s.rect.ToString() +
                 " does not span its linked branch region " +
                 node.branches[branch].rect.ToString());
    }
    if (options_.strict_spanning_placement && !is_root && region_known &&
        s.rect.SpansRegion(region)) {
      Report(ViolationKind::kSpanningNotHighest, id, s.tid,
             "record " + s.rect.ToString() + " spans its node's region " +
                 region.ToString() + " and belongs on the parent");
    }
  }
}

void StructureChecker::CheckRecordTiling() {
  const auto& expected = *options_.expected_records;

  if (tree_->size() != expected.size()) {
    Report(ViolationKind::kRecordCountMismatch, PageId(), kInvalidTupleId,
           "tree reports " + std::to_string(tree_->size()) +
               " records but " + std::to_string(expected.size()) +
               " were expected");
  }

  for (const auto& [original, tid] : expected) {
    auto it = pieces_.find(tid);
    if (it == pieces_.end()) {
      Report(ViolationKind::kRemnantGap, PageId(), tid,
             "no stored pieces for record " + original.ToString());
      continue;
    }
    const std::vector<Rect>& pieces = it->second;

    bool contained = true;
    for (const Rect& piece : pieces) {
      if (!original.Contains(piece)) {
        Report(ViolationKind::kRemnantOutsideOriginal, PageId(), tid,
               "piece " + piece.ToString() + " pokes outside the original " +
                   original.ToString());
        contained = false;
      }
    }

    bool overlapped = false;
    for (size_t a = 0; a < pieces.size() && !overlapped; ++a) {
      for (size_t b = a + 1; b < pieces.size(); ++b) {
        if (PiecesOverlap(original, pieces[a], pieces[b])) {
          Report(ViolationKind::kRemnantOverlap, PageId(), tid,
                 "pieces " + pieces[a].ToString() + " and " +
                     pieces[b].ToString() + " overlap");
          overlapped = true;
          break;
        }
      }
    }

    // Coverage by measure: pieces are contained and pairwise disjoint, so
    // their measures sum to the original's measure iff they cover it.
    // Fully degenerate (point) records are covered by the checks above
    // (one containment-equal piece; a second piece always overlaps).
    const double total = MeasureLike(original, original);
    if (contained && !overlapped && total > 0) {
      double sum = 0;
      for (const Rect& piece : pieces) sum += MeasureLike(original, piece);
      const double tolerance = 1e-9 * std::max(total, 1.0);
      if (sum < total - tolerance) {
        Report(ViolationKind::kRemnantGap, PageId(), tid,
               "stored pieces cover measure " + std::to_string(sum) +
                   " of the original's " + std::to_string(total));
      }
    }
    pieces_.erase(it);
  }

  for (const auto& [tid, rects] : pieces_) {
    Report(ViolationKind::kUnexpectedRecord, PageId(), tid,
           std::to_string(rects.size()) +
               " stored piece(s) for a tuple id absent from the expected "
               "records");
  }
}

void StructureChecker::CheckPageAccounting() {
  storage::Pager* pager = tree_->pager();
  Result<std::vector<PageId>> free_extents = pager->FreeExtents();
  if (!free_extents.ok()) {
    Report(ViolationKind::kFreeListCorrupt, PageId(), kInvalidTupleId,
           free_extents.status().ToString());
    return;
  }
  report_.free_extents = free_extents->size();

  struct Extent {
    uint32_t begin;
    uint32_t end;  // Exclusive.
    bool free;
  };
  std::vector<Extent> extents;
  extents.reserve(reachable_.size() + free_extents->size());
  for (const auto& [block, size_class] : reachable_) {
    extents.push_back(Extent{block, block + (1u << size_class), false});
  }
  for (const PageId& id : *free_extents) {
    extents.push_back(Extent{id.block, id.block + (1u << id.size_class), true});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.begin < b.begin; });

  const uint64_t allocated = pager->allocated_blocks();
  // The superblock slot blocks precede the data range.
  uint32_t cursor = storage::kFirstDataBlock;
  for (const Extent& e : extents) {
    PageId page;
    page.block = e.begin;
    if (e.begin < cursor) {
      Report(ViolationKind::kPageDoublyReferenced, page, kInvalidTupleId,
             std::string(e.free ? "free" : "reachable") +
                 " extent overlaps blocks already accounted to another "
                 "extent");
    } else if (e.begin > cursor) {
      PageId orphan;
      orphan.block = cursor;
      Report(ViolationKind::kPageOrphaned, orphan, kInvalidTupleId,
             "blocks [" + std::to_string(cursor) + ", " +
                 std::to_string(e.begin) +
                 ") are neither reachable from the root nor on a free list");
    }
    cursor = std::max(cursor, e.end);
  }
  if (cursor < allocated) {
    PageId orphan;
    orphan.block = cursor;
    Report(ViolationKind::kPageOrphaned, orphan, kInvalidTupleId,
           "blocks [" + std::to_string(cursor) + ", " +
               std::to_string(allocated) +
               ") are neither reachable from the root nor on a free list");
  } else if (cursor > allocated) {
    PageId beyond;
    beyond.block = cursor;
    Report(ViolationKind::kPageOutOfBounds, beyond, kInvalidTupleId,
           "accounted extents extend to block " + std::to_string(cursor) +
               ", past the allocation high-water mark " +
               std::to_string(allocated));
  }
}

Status StructureChecker::CheckSpec(const rtree::SkeletonSpec& spec,
                                   const Rect& domain) {
  if (spec.levels.empty()) {
    return InvalidArgumentError("skeleton spec has no levels");
  }
  auto check_bounds = [](const std::vector<Coord>& bounds, const char* dim,
                         size_t level) -> Status {
    if (bounds.size() < 2) {
      return InvalidArgumentError(
          "skeleton level " + std::to_string(level) + " has fewer than one " +
          dim + " cell");
    }
    for (size_t i = 1; i < bounds.size(); ++i) {
      if (bounds[i] <= bounds[i - 1]) {
        return InvalidArgumentError(
            "skeleton level " + std::to_string(level) + " " + dim +
            " boundaries are not strictly increasing at index " +
            std::to_string(i));
      }
    }
    return Status::OK();
  };
  // A sorted `sub` is a subset of sorted `super`.
  auto nested = [](const std::vector<Coord>& sub,
                   const std::vector<Coord>& super) {
    size_t j = 0;
    for (const Coord v : sub) {
      while (j < super.size() && super[j] < v) ++j;
      if (j == super.size() || super[j] != v) return false;
    }
    return true;
  };

  for (size_t li = 0; li < spec.levels.size(); ++li) {
    const rtree::SkeletonLevel& level = spec.levels[li];
    SEGIDX_RETURN_IF_ERROR(check_bounds(level.x_bounds, "x", li));
    SEGIDX_RETURN_IF_ERROR(check_bounds(level.y_bounds, "y", li));
    // Every level must cover the domain (its cells partition
    // [front, back] x [front, back] because boundaries strictly increase).
    if (level.x_bounds.front() > domain.x.lo ||
        level.x_bounds.back() < domain.x.hi ||
        level.y_bounds.front() > domain.y.lo ||
        level.y_bounds.back() < domain.y.hi) {
      return InvalidArgumentError("skeleton level " + std::to_string(li) +
                                  " does not cover the domain " +
                                  domain.ToString());
    }
    if (li > 0) {
      const rtree::SkeletonLevel& below = spec.levels[li - 1];
      if (level.x_bounds.front() != below.x_bounds.front() ||
          level.x_bounds.back() != below.x_bounds.back() ||
          level.y_bounds.front() != below.y_bounds.front() ||
          level.y_bounds.back() != below.y_bounds.back()) {
        return InvalidArgumentError(
            "skeleton level " + std::to_string(li) +
            " spans a different extent than the level below");
      }
      if (!nested(level.x_bounds, below.x_bounds) ||
          !nested(level.y_bounds, below.y_bounds)) {
        return InvalidArgumentError(
            "skeleton level " + std::to_string(li) +
            " boundaries are not a subset of level " + std::to_string(li - 1) +
            "'s (cells would not nest)");
      }
      if (level.x_bounds.size() > below.x_bounds.size() ||
          level.y_bounds.size() > below.y_bounds.size()) {
        return InvalidArgumentError(
            "skeleton level " + std::to_string(li) +
            " is finer than the level below");
      }
    }
  }
  return Status::OK();
}

}  // namespace segidx::check
