// Disk-paged R-Tree (Guttman 1984) with the Segment Index extension points
// from Kolovson & Stonebraker (SIGMOD 1991).
//
// The plain RTree implements the classic dynamic R-Tree: ChooseLeaf by least
// enlargement, quadratic or linear node splitting, AdjustTree, search, and
// delete with CondenseTree. Node sizes optionally double per level
// (Section 2.1.2). Two extension points turn it into an SR-Tree (see
// srtree/srtree.h):
//
//   * TryPlaceSpanningRecord — called at every non-leaf node during the
//     insert descent; an SR-Tree places records that span a child region
//     here (with cutting into spanning + remnant portions);
//   * ProcessDemotions — called after the descent for every node whose
//     branch regions expanded; an SR-Tree demotes spanning records whose
//     span relationship broke.
//
// The shared split code carries spanning records to the side that receives
// their linked branch (paper Figure 4) and extracts records for promotion
// when they span one of the post-split regions; for a plain R-Tree those
// vectors are empty and the code is a no-op.
//
// Skeleton variants (Section 4) are produced by PreBuild() — materializing a
// pre-partitioned hierarchy from a SkeletonSpec — plus CoalesceSparseLeaves()
// for the adaptation pass. The policy (distribution prediction, trigger
// cadence) lives in skeleton/.
//
// Region maintenance: branch rectangles only grow during inserts (so
// pre-partitioned skeleton regions persist); splits recompute tight MBRs;
// deletes recompute tight MBRs along the delete path.
//
// Concurrency (full contract: docs/CONCURRENCY.md): Insert/Delete/Search
// self-gate through a three-mode PhaseGate — searches share the read
// phase, Insert/Delete share the write phase and arbitrate among
// themselves with latch crabbing over a NodeLatchTable, and whole-tree
// operations (PreBuild, CoalesceSparseLeaves, the introspection walks) run
// exclusive. SaveMeta and the checkpoint itself are gated by the caller
// (core::IntervalIndex's group commit). Structural validation lives in
// check/structure_checker.h.

#ifndef SEGIDX_RTREE_RTREE_H_
#define SEGIDX_RTREE_RTREE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "rtree/latch.h"
#include "rtree/node.h"
#include "rtree/split.h"
#include "storage/pager.h"

namespace segidx::rtree {

// What an SR-Tree does with a spanning record when the target node's
// spanning quota is full.
enum class SpanningOverflowPolicy {
  // The record descends and is stored deeper; the quota is a hard limit.
  kDescend = 0,
  // The node is split to make room (the paper's "overflow due to ... a
  // spanning index record", Section 3.1.2). Spanning capacity grows
  // without bound; heavy spanning workloads inflate the non-leaf levels.
  kSplit = 1,
  // If the incoming record is larger than the smallest spanning record on
  // the node, the smallest is re-inserted (landing deeper) and the larger
  // record takes its slot; otherwise the incoming record descends. The
  // bounded slots therefore retain the *longest* records — the ones whose
  // placement in leaves is most damaging (Section 2.1.1).
  kEvictSmallest = 2,
};

struct TreeOptions {
  // Double the node size at each level above the leaves (paper default).
  bool double_node_size_per_level = true;
  // Fraction of non-leaf entry slots reserved for branches; the remainder
  // holds spanning records. Only meaningful when spanning is enabled
  // (paper Section 5 uses 2/3).
  double branch_fraction = 2.0 / 3.0;
  // Minimum fill fraction enforced by node splits.
  double min_fill_fraction = 0.4;
  SplitAlgorithm split_algorithm = SplitAlgorithm::kQuadratic;
  // SR-Tree behavior; set by SRTree. A plain RTree must leave this false.
  bool enable_spanning = false;
  // SR-Tree policy when a spanning record meets a node whose spanning
  // quota (slots - BranchCapacity) is exhausted; see DESIGN.md for how
  // each reading maps to the paper's Section 3.1.2 / Section 5 text.
  SpanningOverflowPolicy spanning_overflow_policy =
      SpanningOverflowPolicy::kEvictSmallest;
};

// Plain copyable counters. Every field is bumped through relaxed
// std::atomic_ref, so concurrent searches and concurrent writers never
// race on them; the struct stays copyable and reading a consistent
// snapshot requires quiescence (which tests and benchmarks have after
// joining their workers).
struct TreeStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t searches = 0;
  // Node accesses are logical node visits (the paper's cost metric).
  uint64_t search_node_accesses = 0;
  uint64_t insert_node_accesses = 0;
  uint64_t leaf_splits = 0;
  uint64_t nonleaf_splits = 0;
  uint64_t root_splits = 0;
  // SR-Tree specific counters.
  uint64_t spanning_placed = 0;
  uint64_t cuts = 0;
  uint64_t remnants_inserted = 0;
  uint64_t demotions = 0;
  uint64_t relinks = 0;
  uint64_t promotions = 0;
  // Smallest-resident evictions under SpanningOverflowPolicy::kEvictSmallest.
  uint64_t spanning_evictions = 0;
  // Skeleton adaptation.
  uint64_t coalesced_nodes = 0;
};

struct SearchHit {
  TupleId tid = kInvalidTupleId;
  // The stored entry's rectangle. A record that was cut (Section 3.1.1)
  // surfaces once per stored piece; deduplicate by tid when the logical
  // record is wanted.
  Rect rect;
};

// Per-query runtime controls, threaded from the public facade
// (core::IntervalIndex, including its batch searches) down to the
// node-fetch loop. Shared by the R-Tree and SR-Tree (one search path).
struct SearchOptions {
  // Absolute deadline. Checked before every node fetch, so a pre-expired
  // deadline returns kDeadlineExceeded without touching a single node.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Cooperative cancellation, also checked before every node fetch. The
  // token outlives the search; firing it mid-search returns kCancelled.
  const std::atomic<bool>* cancel_token = nullptr;
  // Resilience: when a node page cannot be read (quarantined, checksum or
  // decode failure, device read error), skip the subtree rooted there and
  // report a partial result instead of failing the search. Damaged pages
  // are quarantined in the pager so later fetches fail fast. Off by
  // default: an unqualified search never silently drops results.
  bool allow_partial = false;
};

// What a search did beyond producing hits: its node-access count and, with
// SearchOptions::allow_partial, which subtrees it had to skip.
struct SearchOutcome {
  uint64_t nodes_accessed = 0;
  // True when at least one subtree was skipped; `hits` then underreports.
  bool partial = false;
  // Root pages of the skipped subtrees, in visit order.
  std::vector<storage::PageId> skipped_subtrees;
};

// Pre-partitioned hierarchy description for Skeleton indexes (Section 4).
// levels[0] is the leaf level. Level k has
// (x_bounds.size()-1) * (y_bounds.size()-1) cells. Boundaries of level k+1
// must be subsets of level k's so that cells nest exactly; the builder in
// skeleton/ guarantees this. An implicit root node points at every cell of
// the top level.
struct SkeletonLevel {
  std::vector<Coord> x_bounds;
  std::vector<Coord> y_bounds;
};
struct SkeletonSpec {
  std::vector<SkeletonLevel> levels;
};

class RTree {
 public:
  // Exact size of the metadata record SaveMeta() writes at the head of the
  // pager's user-meta area. Owners that append their own metadata after it
  // (core::IntervalIndex) budget against this.
  static constexpr size_t kTreeMetaBytes = 74;

  // Creates an empty tree on a freshly formatted pager. The pager must
  // outlive the tree.
  static Result<std::unique_ptr<RTree>> Create(storage::Pager* pager,
                                               const TreeOptions& options);
  // Re-opens a tree persisted with SaveMeta()+pager Checkpoint(). Fails if
  // the persisted tree was created with spanning enabled (use SRTree::Open).
  static Result<std::unique_ptr<RTree>> Open(storage::Pager* pager);

  virtual ~RTree() = default;

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts an index record for `rect` referencing `tid`. Duplicate (rect,
  // tid) pairs are allowed, as in Guttman's R-Tree. Safe to call from many
  // threads concurrently, and concurrently with Search()/Delete(): inserts
  // enter the write phase of the gate and crab node latches down the
  // descent path (docs/CONCURRENCY.md).
  Status Insert(const Rect& rect, TupleId tid);

  // Appends every stored entry intersecting `query` to `out` and reports
  // the number of nodes accessed by this search. Safe to call from many
  // threads concurrently, and concurrently with Insert()/Delete():
  // searches enter the read phase of the gate, so they always observe a
  // structurally consistent tree (node-access counting is per-call, shared
  // stats are updated atomically).
  Status Search(const Rect& query, std::vector<SearchHit>* out,
                uint64_t* nodes_accessed = nullptr);

  // Same, with runtime controls: a deadline and cancel token checked at
  // node-fetch granularity (kDeadlineExceeded / kCancelled), and optional
  // skip-and-continue over damaged pages (see SearchOptions). `outcome`
  // (optional) receives node-access and partial-result details; on a
  // non-OK return it reflects the work done up to the abort.
  Status Search(const Rect& query, const SearchOptions& options,
                std::vector<SearchHit>* out,
                SearchOutcome* outcome = nullptr);

  // Search body without entering the phase gate: for callers that already
  // hold the read phase (IntervalIndex::SearchBatch enters once per batch
  // and fans queries out to pool workers). Entering the gate again from a
  // worker would deadlock under the gate's fairness rotation, so nested
  // entries must use this. Callers MUST hold the read (or exclusive)
  // phase.
  Status SearchGateHeld(const Rect& query, const SearchOptions& options,
                        std::vector<SearchHit>* out,
                        SearchOutcome* outcome = nullptr);

  // Removes one stored entry equal to (rect, tid). Plain R-Tree only: an
  // SR-Tree scopes to insert + search (paper Section 3.1.1) and returns
  // Unimplemented. Returns NotFound if no such entry exists. Safe to call
  // concurrently with Insert()/Search(): deletes enter the write phase and
  // hold latches over the whole descent path (region recomputation
  // propagates unconditionally, so no early release).
  Status Delete(const Rect& rect, TupleId tid);

  // The tree's phase gate. Layers above enter it around operations the
  // tree cannot gate itself: exclusive for SaveMeta + Checkpoint (group
  // commit) and bulk loading, read-shared for whole batches of searches
  // (IntervalIndex::SearchBatch) or a consistent scrub walk.
  PhaseGate& phase_gate() { return gate_; }

  // Materializes a pre-partitioned skeleton hierarchy (the tree must be
  // empty). Enters the exclusive phase.
  Status PreBuild(const SkeletonSpec& spec);

  // One adaptation pass (Section 4): examines up to `max_candidates` least
  // frequently modified leaves and merges each with a spatially adjacent
  // same-parent sibling when their combined entries fit in one leaf.
  // Returns the number of merges performed. Enters the exclusive phase
  // (leaves are freed, which no concurrent reader may observe).
  Result<int> CoalesceSparseLeaves(int max_candidates);

  // Persists root/height/count/options into the pager's metadata area.
  // Follow with pager->Checkpoint() for durability. NOT self-gated: the
  // caller must hold the exclusive phase (core::IntervalIndex runs it
  // inside the group-commit function) or have external quiescence.
  Status SaveMeta();

  // Number of logical records inserted (cut remnants do not add to this).
  // Safe to read concurrently with writers (relaxed atomic).
  uint64_t size() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(record_count_))
        .load(std::memory_order_relaxed);
  }
  // 1 for a single-leaf tree.
  int height() const { return root_level_ + 1; }
  bool spanning_enabled() const { return options_.enable_spanning; }
  const TreeOptions& options() const { return options_; }
  const TreeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TreeStats(); }
  // Contention counters for the phase gate and the node latch table
  // (surfaced by `segidx stats`, the server's stats frame and segbench).
  // Like TreeStats, a consistent snapshot requires quiescence.
  LatchStats latch_stats() const {
    LatchStats out;
    gate_.AccumulateStats(&out);
    latch_table_.AccumulateStats(&out);
    return out;
  }
  storage::Pager* pager() { return pager_; }

  // Entry capacity of a leaf node.
  size_t LeafCapacity() const;
  // Maximum branches in a non-leaf node at `level` (pure byte capacity).
  // Branches and spanning records share the node's bytes, so an SR-Tree
  // holding no spanning records behaves exactly like the plain R-Tree.
  size_t BranchCapacity(int level) const;
  // Branches the skeleton planner assumes per node: `branch_fraction`
  // (paper: 2/3) of the entry bytes, leaving the rest for expected
  // spanning records (paper Section 4).
  size_t BranchPlanningCapacity(int level) const;
  // Per-node spanning-record quota: the reserved (1 - branch_fraction)
  // byte share (enforced under kDescend / kEvictSmallest).
  size_t SpanningCapacity(int level) const;

  // --- read-only introspection (structure checker, tools) ----------------

  // Page id of the root node.
  storage::PageId root() const { return root_; }
  // Region enclosing the whole tree; meaningful when root_region_valid().
  const Rect& root_region() const { return root_region_; }
  bool root_region_valid() const { return root_region_valid_; }
  // Reads and deserializes one node (checksum-verified). When `accesses`
  // is given, the visit is counted there: each operation (search, insert)
  // counts into its own counter, so concurrent operations never share one.
  Result<Node> ReadNode(storage::PageId id,
                        uint64_t* accesses = nullptr) const;
  // Extent size class / byte size a node at `level` is expected to use
  // (Section 2.1.2 doubling, capped at the pager's maximum size class).
  uint8_t SizeClassForLevel(int level) const;
  size_t NodeBytes(int level) const;

  // Writes an indented human-readable dump of the tree structure to `os`
  // (regions, entry counts, spanning records), descending at most
  // `max_depth` levels below the root; -1 dumps the whole tree.
  Status DumpStructure(std::ostream& os, int max_depth = -1);

  // Aggregate per-level structure statistics (walks the tree; `nodes` is
  // the node count per level). A node whose level is not its parent's
  // level minus one fails the walk with kCorruption naming the page.
  struct LevelStats {
    uint64_t nodes = 0;
    uint64_t branch_entries = 0;    // Leaf records at level 0.
    uint64_t spanning_entries = 0;
    double avg_region_width = 0;    // Mean node-region X extent.
    double avg_region_height = 0;   // Mean node-region Y extent.
    double max_region_width = 0;
  };
  Result<std::vector<LevelStats>> CollectLevelStats();

 protected:
  // Insert-time bookkeeping threaded through the recursion.
  struct InsertContext {
    // Records queued for (re)insertion: cut remnants, demoted or evicted
    // spanning records.
    std::vector<std::pair<Rect, TupleId>> reinserts;
    // Nodes whose branch rectangles expanded during the descent; demotion
    // candidates for the SR-Tree.
    std::vector<storage::PageId> expanded_nodes;
    // Set when the record was consumed as a spanning record: the stored
    // portion is already contained in every region on the descent path, so
    // ancestors must not expand their regions by the full original rect
    // (cut remnants are re-inserted separately and expand their own
    // paths).
    bool consumed_as_spanning = false;
    // Node latches held by this descent, shallowest (root) at the front.
    // Crabbing releases the ancestor prefix once a node is "safe" (cannot
    // split and will not expand its region); guards release on
    // destruction, so error paths never leak a latch.
    std::deque<NodeLatchTable::Guard> latches;
    // Node accesses charged to this descent. Concurrent writers each count
    // into their own context (the shared per-op counter would race).
    uint64_t node_accesses = 0;
  };

  enum class SpanningPlacement {
    kNotPlaced,
    kPlaced,
    // Placed, but the node is now over-full and must be split by the
    // caller (paper Section 3.1.2: a node may overflow due to a spanning
    // insert). The hook leaves the over-full node unwritten.
    kPlacedOverflow,
  };

  RTree(storage::Pager* pager, const TreeOptions& options);

  // SR-Tree extension point: try to consume (rect, tid) as a spanning
  // record on `node` (whose region is `node_region`; `is_root` disables
  // cutting in favor of growing the root region). On kPlaced the node has
  // been modified and written back, and `node_region` updated if the root
  // region grew.
  virtual Result<SpanningPlacement> TryPlaceSpanningRecord(
      storage::PageId node_id, Node* node, Rect* node_region, bool is_root,
      const Rect& rect, TupleId tid, InsertContext* ctx);

  // SR-Tree extension point: demote spanning records invalidated by the
  // region expansions recorded in `ctx` (into ctx->reinserts).
  virtual Status ProcessDemotions(InsertContext* ctx);

  // --- shared machinery used by SRTree ---------------------------------

  // Initializes a fresh single-leaf tree (used by the factory functions).
  Status SetupEmptyRoot();
  // Restores tree state from the pager's metadata area.
  Status LoadMeta();

  Status WriteNode(storage::PageId id, const Node& node);
  // Whether `node` (not yet written) exceeds its extent or branch quota
  // and must be split.
  bool NonLeafOverflowed(const Node& node) const;
  // Whether one more spanning entry still fits in the node's bytes.
  bool HasByteRoomForSpanning(const Node& node) const;

  // Bumps a TreeStats counter with a relaxed atomic (mutation paths run
  // write-shared, so plain increments would race).
  static void BumpTreeStat(uint64_t& counter, uint64_t delta = 1) {
    std::atomic_ref<uint64_t>(counter).fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  // Exclusive latch per node extent; writers crab these down the tree.
  NodeLatchTable latch_table_;
  // Guards the root fields (root_, root_level_, root_region_,
  // root_region_valid_) against concurrent writers. Never held while
  // blocking on a node latch (see docs/CONCURRENCY.md, root protocol).
  common::Mutex meta_mu_;

  TreeOptions options_;
  TreeStats stats_;

 private:
  // Static packed construction (bulk_load.h) builds nodes directly.
  friend Status BulkLoadInternal(RTree* tree,
                                 std::vector<std::pair<Rect, TupleId>>*,
                                 int method, double fill_fraction);

  // Search loop shared by both public overloads; accumulates node accesses
  // and skipped subtrees into `oc` on every exit path. Reads each node
  // through a NodeView on its pinned page instead of ReadNode, so a visit
  // allocates nothing.
  Status SearchImpl(const Rect& query, const SearchOptions& options,
                    std::vector<SearchHit>* out, SearchOutcome* oc) const;

  // Inserts one physical record (an original record, a cut remnant, or a
  // demoted spanning record). Latches the root via the retry protocol
  // (latch first, validate root_ under meta_mu_, retry if it moved) and
  // releases every latch it acquired before returning.
  Status InsertOne(const Rect& rect, TupleId tid, InsertContext* ctx);

  // Whether an insert descent may release its ancestor latches at this
  // node: the node cannot split from one more entry and its region already
  // contains `rect`, so nothing can propagate above it.
  bool InsertSafe(const Node& node, const Rect& node_region,
                  const Rect& rect) const;

  // Recursive descent. `node_region` is this node's region as recorded in
  // its parent (for the root: root_region_). Returns the branch for a new
  // sibling if this node split. Updates *node_region to the (possibly
  // grown) region.
  Result<std::optional<BranchEntry>> InsertRecursive(storage::PageId node_id,
                                                     Rect* node_region,
                                                     bool is_root,
                                                     const Rect& rect,
                                                     TupleId tid,
                                                     InsertContext* ctx);

  // Chooses the branch requiring least enlargement (ties: smaller area).
  static size_t ChooseSubtree(const Node& node, const Rect& rect);

  // Splits `node` (already over capacity in memory). Writes both halves and
  // returns the branch entry for the new sibling. `self_region_out`
  // receives the surviving node's tight region. Spanning records are
  // carried with their linked branch; records spanning a post-split region
  // are extracted into ctx->reinserts (promotion via reinsertion).
  Result<BranchEntry> SplitNode(storage::PageId node_id, Node* node,
                                Rect* self_region_out, InsertContext* ctx);

  Status GrowRootAfterSplit(const BranchEntry& old_root,
                            const BranchEntry& sibling);

  // Delete helpers (plain R-Tree).
  struct PathEntry {
    storage::PageId id;
    int branch_index_in_parent = -1;  // -1 for the root.
  };
  // Caller holds node_id's latch; child latches are acquired here before
  // recursing (parent-to-child order) and held until the branch is done.
  Result<bool> DeleteRecursive(storage::PageId node_id, const Rect& rect,
                               TupleId tid,
                               std::vector<std::pair<Rect, TupleId>>* orphans,
                               Rect* region_out, bool* underflow_out,
                               uint64_t* accesses);

  // Leaf bookkeeping for coalescing.
  void NoteLeafModified(uint32_t block);
  void ForgetLeaf(uint32_t block);

  storage::Pager* pager_;

  // The phase gate separating searches (read-shared), Insert/Delete
  // (write-shared) and whole-tree operations (exclusive).
  PhaseGate gate_;

  // Root fields: mutated only under meta_mu_ *and* the root node's latch
  // (write phase). Readers access them without meta_mu_ — the phase gate
  // keeps writers out of the read phase entirely. Deliberately NOT
  // GUARDED_BY(meta_mu_): the protection is the phase, which the
  // compile-time analysis cannot model (the lockdep rules cover the
  // writer-side ordering instead).
  storage::PageId root_;
  int root_level_ = 0;
  Rect root_region_;
  bool root_region_valid_ = false;
  // Mutated via relaxed atomic_ref (concurrent writers).
  uint64_t record_count_ = 0;
  // Deletes whose CondenseTree orphans are out of the tree, from the
  // condense (under the root latch) until their reinsertion ends. A Delete
  // that misses while this is non-zero retries (see Delete).
  std::atomic<int> orphans_out_of_tree_{0};

  // Modification counts per leaf block (Section 4's "least frequently
  // modified" statistic). Rebuilt lazily after Open(). Concurrent writers
  // update it outside any common node latch.
  common::Mutex leaf_mu_;
  std::unordered_map<uint32_t, uint64_t> leaf_mod_counts_
      GUARDED_BY(leaf_mu_);
};

}  // namespace segidx::rtree

#endif  // SEGIDX_RTREE_RTREE_H_
