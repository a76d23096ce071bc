// Deep structural validation for every index variant (the correctness wall
// the perf work lands against).
//
// The paper's structures are easy to break silently: a mis-placed spanning
// record or a lost cut remnant does not crash — it makes some future query
// return the wrong rows. StructureChecker therefore walks a whole
// RTree/SRTree through the public introspection API and verifies the full
// invariant set:
//
//   * tree shape: balance, per-node entry capacities, serialized byte
//     budgets, per-level extent size-class doubling (Section 2.1.2);
//   * regions: a non-empty tree has a valid root region, and every entry
//     (record, branch, spanning record) is contained in its node's region;
//     optionally that each region is the *tight* MBR
//     of its subtree (off by default: skeleton pre-partitioned regions and
//     SR-Tree demotions legitimately leave slack);
//   * spanning records (Section 3.1.1): linked branch exists, the record
//     spans the linked branch's region, and — optionally, strict mode — no
//     record spans its node's whole region un-promoted (quota-overflow
//     policies kDescend/kEvictSmallest deliberately relax this);
//   * cut-remnant tiling (Section 3.1.1, Figure 3): given the original
//     records, the stored pieces of each tuple are pairwise disjoint, lie
//     inside the original rectangle, and cover it exactly;
//   * storage (pager level): no extent referenced twice, no extent both
//     reachable and on a free list, no orphaned extent (reachable + free
//     extents tile the allocated block range), and every reachable page
//     deserializes with a valid checksum.
//
// The checker collects *all* violations into a CheckReport so tests can
// assert that a deliberately injected corruption produces exactly the
// expected violation kind, and `segidx check` can print a full damage
// report; IntervalIndex::CheckInvariants reduces it to the first one.
//
// Skeleton grids (Section 4) are validated by CheckSpec: boundaries strictly
// increasing, each level's cells partition the domain, and upper-level
// boundaries nest into lower-level ones.

#ifndef SEGIDX_CHECK_STRUCTURE_CHECKER_H_
#define SEGIDX_CHECK_STRUCTURE_CHECKER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/types.h"
#include "rtree/rtree.h"
#include "storage/pager.h"

namespace segidx::check {

enum class ViolationKind {
  // Node-level structure.
  kNodeReadFailed = 0,   // Fetch/deserialize failure (I/O, checksum).
  kUnbalancedTree,       // Node level differs from its depth.
  kLeafOverflow,         // More records than the leaf capacity.
  kBranchOverflow,       // More branches than the byte capacity allows.
  kNodeBytesOverflow,    // Serialized node exceeds its extent.
  kBelowMinFill,         // Non-root node under Guttman's minimum fill.
  kInvalidRect,          // Stored rectangle with lo > hi.
  kWrongSizeClass,       // Extent size class != expected for the level.
  // Regions.
  kMbrNotContained,      // Entry escapes its node's region.
  kMbrNotTight,          // Region larger than the tight MBR (optional).
  // Spanning records (SR-Tree).
  kSpanningInPlainTree,  // Spanning entry in a tree with spanning disabled.
  kSpanningNotContained, // Spanning rect escapes its node's region.
  kSpanningBrokenLink,   // Linked branch is not on the node.
  kSpanningNotSpanning,  // Record does not span its linked branch's region.
  kSpanningQuotaExceeded,// More spanning entries than the reserved quota.
  kSpanningNotHighest,   // Spans the whole node region un-promoted (strict).
  // Cut-remnant tiling (needs expected records).
  kRemnantOverlap,       // Two pieces of one tuple overlap.
  kRemnantGap,           // Pieces do not cover the original rectangle.
  kRemnantOutsideOriginal,  // A piece pokes outside the original rectangle.
  kUnexpectedRecord,     // Stored tuple id absent from the expected set.
  kRecordCountMismatch,  // tree->size() != expected record count.
  // Storage accounting.
  kPageDoublyReferenced, // Extent reachable twice / overlapping extents.
  kPageOrphaned,         // Allocated blocks neither reachable nor free.
  kPageOutOfBounds,      // Reference beyond the allocation high-water mark.
  kFreeListCorrupt,      // Free list unreadable, cyclic, or out of range.
};

// Stable name, e.g. "SPANNING_BROKEN_LINK".
const char* ViolationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  // Offending page; invalid() for tree- or record-global violations.
  storage::PageId page;
  // Offending tuple, or kInvalidTupleId.
  TupleId tid = kInvalidTupleId;
  std::string message;

  // "SPANNING_BROKEN_LINK @page 17: ...".
  std::string ToString() const;
};

struct CheckOptions {
  // Demand Guttman's minimum fill in every non-root node (only valid for
  // trees grown purely by splits; skeleton and coalesced trees violate it
  // by design).
  bool expect_min_fill = false;
  // Demand that every node region equals the tight MBR of its entries.
  // Plain dynamic R-Trees maintain this; skeleton pre-partitioned regions
  // and SR-Tree demotions legitimately leave slack.
  bool check_mbr_tightness = false;
  // Strict Section 3 placement: no spanning record may span its node's
  // whole region (it would belong on the parent). The quota-overflow
  // policies kDescend and kEvictSmallest deliberately let records descend
  // past full nodes, so enable this only for workloads known to stay under
  // the spanning quotas.
  bool strict_spanning_placement = false;
  // Check the spanning-record quota (skipped automatically under the
  // kSplit overflow policy, where spanning capacity is unbounded).
  bool check_spanning_quota = true;
  // Cross-check the pager: reachable + free extents must exactly tile the
  // allocated block range.
  bool check_page_accounting = true;
  // The original (uncut) records, for the remnant-tiling and record-count
  // checks; tuple ids must be unique. nullptr skips those checks.
  const std::vector<std::pair<Rect, TupleId>>* expected_records = nullptr;
  // Stop collecting after this many violations (the walk still completes).
  size_t max_violations = 64;
};

struct CheckReport {
  std::vector<Violation> violations;
  bool truncated = false;  // max_violations was hit.

  // Walk statistics.
  uint64_t nodes_visited = 0;
  uint64_t leaf_records = 0;
  uint64_t spanning_records = 0;
  uint64_t reachable_extents = 0;
  uint64_t free_extents = 0;

  bool ok() const { return violations.empty(); }
  bool Has(ViolationKind kind) const;
  size_t CountOf(ViolationKind kind) const;
  // OK, or kInternal carrying the first violation (and the total count).
  Status ToStatus() const;
  // Multi-line human-readable report (all violations + statistics).
  std::string ToString() const;
};

class StructureChecker {
 public:
  // `tree` (and its pager) must outlive the checker. The checker only
  // reads; it never modifies the tree.
  explicit StructureChecker(rtree::RTree* tree, CheckOptions options = {});

  // Walks the whole structure once. The Result is an error only for
  // internal failures (e.g. the free-list walk failing mid-way is reported
  // as a violation, not an error).
  Result<CheckReport> Check();

  // Validates a skeleton grid description (Section 4): at least one cell
  // per dimension and level, strictly increasing boundaries, every level
  // spanning exactly `domain`, and level k+1 boundaries a subset of level
  // k's (so cells nest and each level partitions the domain).
  static Status CheckSpec(const rtree::SkeletonSpec& spec, const Rect& domain);

 private:
  void Report(ViolationKind kind, storage::PageId page, TupleId tid,
              std::string message);
  void CheckNode(storage::PageId id, const rtree::Node& node,
                 const Rect& region, bool is_root);
  void CheckSpanningEntries(storage::PageId id, const rtree::Node& node,
                            const Rect& region, bool is_root);
  void CheckRecordTiling();
  void CheckPageAccounting();

  rtree::RTree* tree_;
  CheckOptions options_;
  CheckReport report_;

  // Pieces stored per tuple id (leaf records + spanning records), collected
  // only when expected_records is provided.
  std::unordered_map<TupleId, std::vector<Rect>> pieces_;
  // Extents reached from the root (block -> size class), for cycle
  // protection and page accounting.
  std::unordered_map<uint32_t, uint8_t> reachable_;
};

}  // namespace segidx::check

#endif  // SEGIDX_CHECK_STRUCTURE_CHECKER_H_
