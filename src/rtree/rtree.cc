#include "rtree/rtree.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "storage/coding.h"

namespace segidx::rtree {

namespace {

using check::LockClass;
using check::TrackedMutexLock;
using LatchOrigin = NodeLatchTable::LatchOrigin;

constexpr uint32_t kTreeMetaMagic = 0x54524545;  // "TREE"
constexpr uint16_t kTreeMetaVersion = 1;
constexpr size_t kTreeMetaBytes = RTree::kTreeMetaBytes;

// Safety valve against pathological reinsertion cascades.
constexpr int kMaxReinsertIterations = 1 << 20;

}  // namespace

RTree::RTree(storage::Pager* pager, const TreeOptions& options)
    : options_(options), pager_(pager) {
  SEGIDX_CHECK(pager != nullptr);
}

Result<std::unique_ptr<RTree>> RTree::Create(storage::Pager* pager,
                                             const TreeOptions& options) {
  if (options.enable_spanning) {
    return InvalidArgumentError(
        "plain RTree cannot enable spanning records; use SRTree");
  }
  if (options.branch_fraction <= 0 || options.branch_fraction > 1) {
    return InvalidArgumentError("branch_fraction must be in (0, 1]");
  }
  if (options.min_fill_fraction <= 0 || options.min_fill_fraction > 0.5) {
    return InvalidArgumentError("min_fill_fraction must be in (0, 0.5]");
  }
  std::unique_ptr<RTree> tree(new RTree(pager, options));
  SEGIDX_RETURN_IF_ERROR(tree->SetupEmptyRoot());
  return tree;
}

Result<std::unique_ptr<RTree>> RTree::Open(storage::Pager* pager) {
  TreeOptions options;
  std::unique_ptr<RTree> tree(new RTree(pager, options));
  SEGIDX_RETURN_IF_ERROR(tree->LoadMeta());
  if (tree->options_.enable_spanning) {
    return InvalidArgumentError(
        "file holds an SR-Tree; open it with SRTree::Open");
  }
  return std::unique_ptr<RTree>(std::move(tree));
}

Status RTree::SetupEmptyRoot() {
  Node root;
  root.level = 0;
  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                          pager_->Allocate(SizeClassForLevel(0)));
  SEGIDX_RETURN_IF_ERROR(root.Serialize(page.data(), page.size()));
  page.MarkDirty();
  TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
  root_ = page.id();
  root_level_ = 0;
  root_region_valid_ = false;
  std::atomic_ref<uint64_t>(record_count_)
      .store(0, std::memory_order_relaxed);
  return Status::OK();
}

uint8_t RTree::SizeClassForLevel(int level) const {
  if (!options_.double_node_size_per_level) return 0;
  const int capped = std::min<int>(level, pager_->max_size_class());
  return static_cast<uint8_t>(capped);
}

size_t RTree::NodeBytes(int level) const {
  return pager_->ExtentBytes(SizeClassForLevel(level));
}

size_t RTree::LeafCapacity() const {
  return NodeCapacity::LeafEntries(NodeBytes(0));
}

size_t RTree::BranchCapacity(int level) const {
  SEGIDX_CHECK_GT(level, 0);
  return (NodeBytes(level) - kNodeHeaderBytes) / kBranchEntryBytes;
}

size_t RTree::BranchPlanningCapacity(int level) const {
  if (!options_.enable_spanning) return BranchCapacity(level);
  const size_t entry_bytes = NodeBytes(level) - kNodeHeaderBytes;
  const size_t quota = static_cast<size_t>(
      options_.branch_fraction * static_cast<double>(entry_bytes) /
      kBranchEntryBytes);
  return std::max<size_t>(quota, 2);
}

size_t RTree::SpanningCapacity(int level) const {
  if (!options_.enable_spanning) return 0;
  const size_t entry_bytes = NodeBytes(level) - kNodeHeaderBytes;
  return static_cast<size_t>((1.0 - options_.branch_fraction) *
                             static_cast<double>(entry_bytes) /
                             kSpanningEntryBytes);
}

bool RTree::NonLeafOverflowed(const Node& node) const {
  return node.branches.size() > BranchCapacity(node.level) ||
         node.SerializedBytes() > NodeBytes(node.level);
}

bool RTree::HasByteRoomForSpanning(const Node& node) const {
  return node.SerializedBytes() + kSpanningEntryBytes <=
         NodeBytes(node.level);
}

Result<Node> RTree::ReadNode(storage::PageId id, uint64_t* accesses) const {
  if (accesses != nullptr) ++*accesses;
  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page, pager_->Fetch(id));
  return Node::Deserialize(page.data(), page.size());
}

Status RTree::WriteNode(storage::PageId id, const Node& node) {
  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page, pager_->Fetch(id));
  SEGIDX_RETURN_IF_ERROR(node.Serialize(page.data(), page.size()));
  page.MarkDirty();
  return Status::OK();
}

void RTree::NoteLeafModified(uint32_t block) {
  TrackedMutexLock lock(&leaf_mu_, LockClass::kTreeLeaf);
  ++leaf_mod_counts_[block];
}

void RTree::ForgetLeaf(uint32_t block) {
  TrackedMutexLock lock(&leaf_mu_, LockClass::kTreeLeaf);
  leaf_mod_counts_.erase(block);
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

Status RTree::Insert(const Rect& rect, TupleId tid) {
  if (!rect.valid()) {
    return InvalidArgumentError("invalid rectangle: " + rect.ToString());
  }
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kWrite);
  uint64_t accesses = 0;

  std::deque<std::pair<Rect, TupleId>> queue;
  queue.emplace_back(rect, tid);
  int iterations = 0;
  while (!queue.empty()) {
    if (++iterations > kMaxReinsertIterations) {
      return InternalError("reinsertion cascade did not terminate");
    }
    auto [r, t] = queue.front();
    queue.pop_front();
    InsertContext ctx;
    SEGIDX_RETURN_IF_ERROR(InsertOne(r, t, &ctx));
    SEGIDX_RETURN_IF_ERROR(ProcessDemotions(&ctx));
    accesses += ctx.node_accesses;
    for (auto& pending : ctx.reinserts) queue.push_back(std::move(pending));
  }

  BumpTreeStat(record_count_);
  BumpTreeStat(stats_.inserts);
  BumpTreeStat(stats_.insert_node_accesses, accesses);
  return Status::OK();
}

Status RTree::InsertOne(const Rect& rect, TupleId tid, InsertContext* ctx) {
  // Root protocol: latch the root node first, then validate under meta_mu_
  // that it still is the root (another writer may have grown or shrunk the
  // tree between the read and the latch grant). Blocking on a node latch
  // while holding meta_mu_ is forbidden, hence the retry loop.
  storage::PageId root;
  Rect root_region;
  for (;;) {
    {
      TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
      root = root_;
    }
    NodeLatchTable::Guard guard =
        latch_table_.Acquire(root.block, LatchOrigin::Standalone());
    TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
    if (root_.block == root.block) {
      root = root_;
      if (!root_region_valid_) {
        root_region_ = rect;
        root_region_valid_ = true;
      }
      root_region = root_region_;
      ctx->latches.push_back(std::move(guard));
      break;
    }
    // The root moved while we latched the old one; retry against the new.
  }

  SEGIDX_ASSIGN_OR_RETURN(
      std::optional<BranchEntry> sibling,
      InsertRecursive(root, &root_region, /*is_root=*/true, rect, tid,
                      ctx));
  if (sibling.has_value()) {
    // A split reached the root, so no descendant was "safe" and the root
    // latch is still held: growing the root cannot race another writer.
    BranchEntry old_root;
    old_root.rect = root_region;
    old_root.child = root;
    SEGIDX_RETURN_IF_ERROR(GrowRootAfterSplit(old_root, *sibling));
  } else if (!ctx->latches.empty() &&
             ctx->latches.front().block() == root.block) {
    // Root latch retained: the root region may have grown. When crabbing
    // released it instead, containment held at the release point, so the
    // root region provably did not change.
    TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
    root_region_ = root_region;
  }
  ctx->latches.clear();
  return Status::OK();
}

bool RTree::InsertSafe(const Node& node, const Rect& node_region,
                       const Rect& rect) const {
  // Region containment: nothing above this node expands.
  if (!node_region.Contains(rect)) return false;
  // Split immunity: one more entry (a record, or a branch from a child
  // split) still fits. Under the kSplit spanning-overflow policy a
  // spanning placement can split any non-leaf regardless of branch room,
  // so non-leaves are never safe there.
  if (node.is_leaf()) return node.records.size() + 1 <= LeafCapacity();
  if (options_.enable_spanning &&
      options_.spanning_overflow_policy == SpanningOverflowPolicy::kSplit) {
    return false;
  }
  return node.branches.size() + 1 <= BranchCapacity(node.level) &&
         node.SerializedBytes() + kBranchEntryBytes <= NodeBytes(node.level);
}

Result<std::optional<BranchEntry>> RTree::InsertRecursive(
    storage::PageId node_id, Rect* node_region, bool is_root,
    const Rect& rect, TupleId tid, InsertContext* ctx) {
  // The caller (InsertOne for the root, the parent frame otherwise)
  // already holds this node's latch.
  SEGIDX_ASSIGN_OR_RETURN(Node node, ReadNode(node_id, &ctx->node_accesses));

  // Crabbing: once this node is safe — it cannot split and its region
  // already contains the record — nothing can propagate above it, so the
  // ancestor latches (the deque prefix) are released. Every write a
  // released ancestor frame would perform is then provably a no-op: the
  // child region it observes cannot change and Enclose(rect) is identity
  // under containment.
  if (!is_root && ctx->latches.size() > 1 &&
      InsertSafe(node, *node_region, rect)) {
    while (ctx->latches.size() > 1) ctx->latches.pop_front();
  }

  if (node.is_leaf()) {
    node.records.push_back(LeafEntry{rect, tid});
    NoteLeafModified(node_id.block);
    if (node.records.size() > LeafCapacity()) {
      BumpTreeStat(stats_.leaf_splits);
      Rect self_region;
      SEGIDX_ASSIGN_OR_RETURN(BranchEntry sibling,
                              SplitNode(node_id, &node, &self_region, ctx));
      *node_region = self_region;
      return std::optional<BranchEntry>(sibling);
    }
    SEGIDX_RETURN_IF_ERROR(WriteNode(node_id, node));
    *node_region = node_region->Enclose(rect);
    return std::optional<BranchEntry>();
  }

  // Non-leaf node: give the SR-Tree a chance to consume the record as a
  // spanning record at this level (Section 3.1.1).
  if (options_.enable_spanning) {
    SEGIDX_ASSIGN_OR_RETURN(
        SpanningPlacement placement,
        TryPlaceSpanningRecord(node_id, &node, node_region, is_root, rect,
                               tid, ctx));
    if (placement == SpanningPlacement::kPlaced) {
      ctx->consumed_as_spanning = true;
      return std::optional<BranchEntry>();
    }
    if (placement == SpanningPlacement::kPlacedOverflow) {
      ctx->consumed_as_spanning = true;
      BumpTreeStat(stats_.nonleaf_splits);
      Rect self_region;
      SEGIDX_ASSIGN_OR_RETURN(BranchEntry sibling,
                              SplitNode(node_id, &node, &self_region, ctx));
      *node_region = self_region;
      return std::optional<BranchEntry>(sibling);
    }
  }

  const size_t idx = ChooseSubtree(node, rect);
  Rect child_region = node.branches[idx].rect;
  const Rect old_child_region = child_region;
  // Latch-couple: acquire the child before descending (parent-to-child
  // order only). The child guard is popped back off after the descent
  // unless a deeper safe node already released this whole prefix.
  const size_t depth = ctx->latches.size();
  ctx->latches.push_back(latch_table_.Acquire(
      node.branches[idx].child.block, LatchOrigin::Child(node_id.block)));
  SEGIDX_ASSIGN_OR_RETURN(
      std::optional<BranchEntry> child_split,
      InsertRecursive(node.branches[idx].child, &child_region,
                      /*is_root=*/false, rect, tid, ctx));
  while (ctx->latches.size() > depth) ctx->latches.pop_back();

  bool dirty = false;
  if (!(child_region == old_child_region)) {
    node.branches[idx].rect = child_region;
    dirty = true;
    // An expanded child region can break span relationships of spanning
    // records stored on this node (paper Section 3.1.1, demotions).
    if (options_.enable_spanning && !node.spanning.empty()) {
      ctx->expanded_nodes.push_back(node_id);
    }
  }

  if (child_split.has_value()) {
    node.branches.push_back(*child_split);
    dirty = true;
    if (NonLeafOverflowed(node)) {
      ++stats_.nonleaf_splits;
      Rect self_region;
      SEGIDX_ASSIGN_OR_RETURN(BranchEntry sibling,
                              SplitNode(node_id, &node, &self_region, ctx));
      *node_region = self_region;
      return std::optional<BranchEntry>(sibling);
    }
  }

  if (dirty) {
    SEGIDX_RETURN_IF_ERROR(WriteNode(node_id, node));
  }
  if (ctx->consumed_as_spanning) {
    // The stored spanning portion lies inside the child branch rect already
    // updated above; enclosing the full original rect here would elongate
    // this region for data that lives elsewhere (as remnants).
    *node_region = node_region->Enclose(node.branches[idx].rect);
  } else {
    *node_region = node_region->Enclose(rect);
  }
  return std::optional<BranchEntry>();
}

size_t RTree::ChooseSubtree(const Node& node, const Rect& rect) {
  SEGIDX_CHECK(!node.branches.empty());
  size_t best = 0;
  Coord best_enlargement = std::numeric_limits<Coord>::infinity();
  Coord best_area = std::numeric_limits<Coord>::infinity();
  for (size_t i = 0; i < node.branches.size(); ++i) {
    const Rect& r = node.branches[i].rect;
    const Coord enlargement = r.Enlargement(rect);
    const Coord area = r.area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best = i;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

Result<BranchEntry> RTree::SplitNode(storage::PageId node_id, Node* node,
                                     Rect* self_region_out,
                                     InsertContext* ctx) {
  const size_t min_fill = static_cast<size_t>(
      options_.min_fill_fraction *
      static_cast<double>(node->is_leaf() ? LeafCapacity()
                                          : BranchCapacity(node->level)));

  Node sibling;
  sibling.level = node->level;

  if (node->is_leaf()) {
    std::vector<Rect> rects;
    rects.reserve(node->records.size());
    for (const LeafEntry& e : node->records) rects.push_back(e.rect);
    const SplitPartition part =
        SplitRects(rects, min_fill, options_.split_algorithm);

    std::vector<LeafEntry> own;
    own.reserve(part.group_a.size());
    for (int i : part.group_a) own.push_back(node->records[i]);
    sibling.records.reserve(part.group_b.size());
    for (int i : part.group_b) sibling.records.push_back(node->records[i]);
    node->records = std::move(own);
  } else {
    std::vector<Rect> rects;
    rects.reserve(node->branches.size());
    for (const BranchEntry& b : node->branches) rects.push_back(b.rect);
    const SplitPartition part =
        SplitRects(rects, min_fill, options_.split_algorithm);

    std::vector<BranchEntry> own;
    own.reserve(part.group_a.size());
    for (int i : part.group_a) own.push_back(node->branches[i]);
    sibling.branches.reserve(part.group_b.size());
    for (int i : part.group_b) sibling.branches.push_back(node->branches[i]);
    node->branches = std::move(own);

    // Carry spanning records to the side that received their linked branch
    // (paper Figure 4), except those that now span a whole post-split
    // region: those are promoted by reinsertion (paper Section 3.1.2).
    if (!node->spanning.empty()) {
      Rect region_a = node->branches[0].rect;
      for (size_t i = 1; i < node->branches.size(); ++i) {
        region_a = region_a.Enclose(node->branches[i].rect);
      }
      Rect region_b = sibling.branches[0].rect;
      for (size_t i = 1; i < sibling.branches.size(); ++i) {
        region_b = region_b.Enclose(sibling.branches[i].rect);
      }
      std::vector<SpanningEntry> keep_a;
      for (SpanningEntry s : node->spanning) {
        if (s.rect.SpansRegion(region_a) ||
            s.rect.SpansRegion(region_b)) {
          BumpTreeStat(stats_.promotions);
          ctx->reinserts.emplace_back(s.rect, s.tid);
          continue;
        }
        const storage::PageId linked = storage::PageId::Decode(s.linked_child);
        Node* dest = sibling.FindBranch(linked) >= 0 ? &sibling : node;
        // The linked branch may have expanded earlier in this descent and
        // no longer be spanned; relink to any spanned branch on the
        // destination side, or fall back to reinsertion.
        bool placed = false;
        if (dest->FindBranch(linked) >= 0 &&
            s.rect.SpansRegion(
                dest->branches[dest->FindBranch(linked)].rect)) {
          placed = true;
        } else {
          for (const BranchEntry& b : dest->branches) {
            if (s.rect.SpansRegion(b.rect)) {
              s.linked_child = b.child.Encode();
              BumpTreeStat(stats_.relinks);
              placed = true;
              break;
            }
          }
        }
        if (!placed) {
          BumpTreeStat(stats_.demotions);
          ctx->reinserts.emplace_back(s.rect, s.tid);
          continue;
        }
        if (dest == &sibling) {
          sibling.spanning.push_back(s);
        } else {
          keep_a.push_back(s);
        }
      }
      node->spanning = std::move(keep_a);
    }

    // An overflow split started from a node one spanning entry over its
    // extent; in the worst case one side can still be a few bytes over.
    // Shed the smallest spanning records into reinsertion until both
    // halves fit.
    for (Node* side : {node, &sibling}) {
      while (side->SerializedBytes() > NodeBytes(side->level) &&
             !side->spanning.empty()) {
        size_t smallest = 0;
        for (size_t i = 1; i < side->spanning.size(); ++i) {
          if (side->spanning[i].rect.margin() <
              side->spanning[smallest].rect.margin()) {
            smallest = i;
          }
        }
        ctx->reinserts.emplace_back(side->spanning[smallest].rect,
                                    side->spanning[smallest].tid);
        side->spanning.erase(side->spanning.begin() +
                             static_cast<ptrdiff_t>(smallest));
        BumpTreeStat(stats_.spanning_evictions);
      }
    }
  }

  // Allocate the sibling extent at this level's size class.
  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                          pager_->Allocate(SizeClassForLevel(node->level)));
  const storage::PageId sibling_id = page.id();
  SEGIDX_RETURN_IF_ERROR(sibling.Serialize(page.data(), page.size()));
  page.MarkDirty();
  page.Release();

  SEGIDX_RETURN_IF_ERROR(WriteNode(node_id, *node));

  if (node->is_leaf()) {
    // Split the modification statistic between the halves.
    TrackedMutexLock lock(&leaf_mu_, LockClass::kTreeLeaf);
    const uint64_t count = leaf_mod_counts_[node_id.block];
    leaf_mod_counts_[node_id.block] = count / 2;
    leaf_mod_counts_[sibling_id.block] = count / 2;
  }

  *self_region_out = node->ComputeMbr();
  BranchEntry out;
  out.rect = sibling.ComputeMbr();
  out.child = sibling_id;
  return out;
}

Status RTree::GrowRootAfterSplit(const BranchEntry& old_root,
                                 const BranchEntry& sibling) {
  Node new_root;
  new_root.level = static_cast<uint16_t>(root_level_ + 1);
  new_root.branches.push_back(old_root);
  new_root.branches.push_back(sibling);

  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                          pager_->Allocate(SizeClassForLevel(new_root.level)));
  SEGIDX_RETURN_IF_ERROR(new_root.Serialize(page.data(), page.size()));
  page.MarkDirty();
  // The caller holds the old root's latch (a split that reached the root
  // means no safe node released it), so no other writer can be moving the
  // root concurrently; meta_mu_ publishes the new root to writers blocked
  // in the root protocol.
  TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
  root_ = page.id();
  root_level_ = new_root.level;
  root_region_ = old_root.rect.Enclose(sibling.rect);
  BumpTreeStat(stats_.root_splits);
  return Status::OK();
}

// Default hooks: a plain R-Tree stores nothing in non-leaf nodes.
Result<RTree::SpanningPlacement> RTree::TryPlaceSpanningRecord(
    storage::PageId /*node_id*/, Node* /*node*/, Rect* /*node_region*/,
    bool /*is_root*/, const Rect& /*rect*/, TupleId /*tid*/,
    InsertContext* /*ctx*/) {
  return SpanningPlacement::kNotPlaced;
}

Status RTree::ProcessDemotions(InsertContext* /*ctx*/) {
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Status RTree::Search(const Rect& query, std::vector<SearchHit>* out,
                     uint64_t* nodes_accessed) {
  SearchOutcome outcome;
  const Status status = Search(query, SearchOptions(), out, &outcome);
  if (nodes_accessed != nullptr) *nodes_accessed = outcome.nodes_accessed;
  return status;
}

Status RTree::Search(const Rect& query, const SearchOptions& options,
                     std::vector<SearchHit>* out, SearchOutcome* outcome) {
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kRead);
  return SearchGateHeld(query, options, out, outcome);
}

Status RTree::SearchGateHeld(const Rect& query, const SearchOptions& options,
                             std::vector<SearchHit>* out,
                             SearchOutcome* outcome) {
  if (!query.valid()) {
    return InvalidArgumentError("invalid query rectangle");
  }
  SearchOutcome local;
  SearchOutcome& oc = outcome != nullptr ? *outcome : local;
  oc = SearchOutcome();
  const Status status = SearchImpl(query, options, out, &oc);
  // Shared stats are published on every exit path — an aborted search's
  // node accesses still happened.
  std::atomic_ref<uint64_t>(stats_.searches)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(stats_.search_node_accesses)
      .fetch_add(oc.nodes_accessed, std::memory_order_relaxed);
  return status;
}

Status RTree::SearchImpl(const Rect& query, const SearchOptions& options,
                         std::vector<SearchHit>* out,
                         SearchOutcome* oc) const {
  // Searches run concurrently: count node accesses in the per-call outcome
  // rather than the shared per-op counter the mutation path uses.
  std::vector<storage::PageId> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    // Deadline and cancellation fire at node-fetch granularity: a search
    // never starts another page read past either, so a deadline of "now"
    // costs zero node accesses.
    if (options.cancel_token != nullptr &&
        options.cancel_token->load(std::memory_order_relaxed)) {
      return CancelledError("search cancelled after " +
                            std::to_string(oc->nodes_accessed) +
                            " node accesses");
    }
    if (options.deadline.has_value() &&
        std::chrono::steady_clock::now() >= *options.deadline) {
      return DeadlineExceededError("search deadline expired after " +
                                   std::to_string(oc->nodes_accessed) +
                                   " node accesses");
    }
    const storage::PageId id = stack.back();
    stack.pop_back();
    ++oc->nodes_accessed;
    Result<storage::PageHandle> page = pager_->Fetch(id);
    Result<NodeView> node_or =
        page.ok() ? NodeView::Parse(page->data(), page->size())
                  : Result<NodeView>(page.status());
    if (!node_or.ok()) {
      const StatusCode code = node_or.status().code();
      const bool damage = code == StatusCode::kCorruption ||
                          code == StatusCode::kIoError ||
                          code == StatusCode::kInvalidArgument;
      if (!options.allow_partial || !damage) return node_or.status();
      // Skip the dead subtree and answer partially. Checksum/decode
      // failures quarantine the page so later fetches fail fast without
      // re-reading known-bad media; transient I/O errors are skipped but
      // not quarantined (a retry may succeed). A full quarantine set
      // means the damage is wider than per-page resilience should mask —
      // fail hard so the operator runs salvage.
      if (code == StatusCode::kCorruption && id.valid() &&
          !pager_->QuarantinePage(id, node_or.status().message())) {
        return node_or.status();
      }
      oc->partial = true;
      oc->skipped_subtrees.push_back(id);
      continue;
    }
    const NodeView& node = *node_or;
    if (node.is_leaf()) {
      for (size_t i = 0; i < node.record_count(); ++i) {
        const LeafEntry e = node.record(i);
        if (e.rect.Intersects(query)) {
          out->push_back(SearchHit{e.tid, e.rect});
        }
      }
      continue;
    }
    // Spanning records stored on a node are wholly contained by it, so
    // every intersecting spanning record is found on the descent
    // (Section 3.1.3).
    for (size_t i = 0; i < node.spanning_count(); ++i) {
      const SpanningEntry s = node.spanning(i);
      if (s.rect.Intersects(query)) {
        out->push_back(SearchHit{s.tid, s.rect});
      }
    }
    for (size_t i = 0; i < node.branch_count(); ++i) {
      const BranchEntry b = node.branch(i);
      if (b.rect.Intersects(query)) {
        stack.push_back(b.child);
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Deletion (plain R-Tree)
// ---------------------------------------------------------------------------

Status RTree::Delete(const Rect& rect, TupleId tid) {
  if (options_.enable_spanning) {
    return UnimplementedError(
        "SR-Tree supports insertion and search only (paper Section 3.1.1); "
        "delete is available on the plain R-Tree");
  }
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kWrite);
  uint64_t accesses = 0;

  NodeLatchTable::Guard root_guard;
  storage::PageId root;
  Rect region;
  std::vector<std::pair<Rect, TupleId>> orphans;
  bool underflow = false;
  for (;;) {
    // Root protocol: latch the root block without holding meta_mu_, then
    // verify the root did not move while we blocked (see InsertOne).
    for (;;) {
      storage::PageId seen;
      {
        TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
        seen = root_;
      }
      NodeLatchTable::Guard guard =
          latch_table_.Acquire(seen.block, LatchOrigin::Standalone());
      TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
      if (root_.block != seen.block) continue;  // Root moved; retry.
      root = root_;
      region = root_region_;
      root_guard = std::move(guard);
      break;
    }
    // Deletes are serialized by the root latch, so orphans counted here
    // are the only records missing from the tree during the descent.
    const bool orphans_were_out = orphans_out_of_tree_.load() != 0;

    // Deletion holds the whole latch path: each frame keeps its node
    // latched while it recurses, so the write-back after the child returns
    // is always covered. Depth is small (R-Tree height), so the lost
    // concurrency is cheaper than insert-style safe-release bookkeeping
    // for the rare op.
    SEGIDX_ASSIGN_OR_RETURN(
        bool found, DeleteRecursive(root, rect, tid, &orphans, &region,
                                    &underflow, &accesses));
    if (found) break;
    if (!orphans_were_out) return NotFoundError("no such index record");
    // Another delete condensed a leaf and has not yet reinserted its
    // orphans; the record may be among them. Retry once they are back.
    root_guard.Release();
    std::this_thread::yield();
  }
  // The orphans are out of the tree until reinserted below; a concurrent
  // Delete that misses meanwhile retries instead of reporting NotFound.
  struct OrphansOut {
    std::atomic<int>* count;
    ~OrphansOut() {
      if (count != nullptr) count->fetch_sub(1);
    }
  } orphans_guard{orphans.empty() ? nullptr : &orphans_out_of_tree_};
  if (!orphans.empty()) orphans_out_of_tree_.fetch_add(1);
  {
    TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
    root_region_ = region;
  }

  // Shrink the root while it is a non-leaf node with a single branch. We
  // still hold the old root's latch; the replacement child is latched
  // before the swap is published so descending writers that pass the root
  // protocol always land on a latched, live node.
  for (;;) {
    SEGIDX_ASSIGN_OR_RETURN(Node root_node, ReadNode(root, &accesses));
    if (root_node.is_leaf()) {
      if (root_node.records.empty()) {
        TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
        root_region_valid_ = false;
      }
      break;
    }
    if (root_node.branches.empty()) {
      // The whole tree emptied out; replace with a fresh leaf root.
      // SetupEmptyRoot publishes the new root under meta_mu_; the old
      // root's latch covers the Free.
      SEGIDX_RETURN_IF_ERROR(pager_->Free(root));
      SEGIDX_RETURN_IF_ERROR(SetupEmptyRoot());
      break;
    }
    if (root_node.branches.size() == 1 && root_node.spanning.empty()) {
      const storage::PageId child = root_node.branches[0].child;
      const Rect child_rect = root_node.branches[0].rect;
      NodeLatchTable::Guard child_guard =
          latch_table_.Acquire(child.block, LatchOrigin::Child(root.block));
      {
        TrackedMutexLock lock(&meta_mu_, LockClass::kTreeMeta);
        root_ = child;
        --root_level_;
        root_region_ = child_rect;
      }
      SEGIDX_RETURN_IF_ERROR(pager_->Free(root));
      root = child;
      root_guard = std::move(child_guard);
      continue;
    }
    break;
  }

  std::atomic_ref<uint64_t>(record_count_)
      .fetch_sub(1, std::memory_order_relaxed);
  BumpTreeStat(stats_.deletes);

  // Reinsert entries orphaned by condensed leaves. These are fresh root
  // descents; drop the root latch first so they cannot self-deadlock.
  root_guard.Release();
  for (const auto& [r, t] : orphans) {
    InsertContext ctx;
    SEGIDX_RETURN_IF_ERROR(InsertOne(r, t, &ctx));
    SEGIDX_CHECK(ctx.reinserts.empty());  // Plain R-Tree never re-queues.
  }
  return Status::OK();
}

Result<bool> RTree::DeleteRecursive(
    storage::PageId node_id, const Rect& rect, TupleId tid,
    std::vector<std::pair<Rect, TupleId>>* orphans, Rect* region_out,
    bool* underflow_out, uint64_t* accesses) {
  // Caller holds node_id's latch for the duration of this frame.
  SEGIDX_ASSIGN_OR_RETURN(Node node, ReadNode(node_id, accesses));
  *underflow_out = false;

  if (node.is_leaf()) {
    for (size_t i = 0; i < node.records.size(); ++i) {
      if (node.records[i].rect == rect && node.records[i].tid == tid) {
        node.records.erase(node.records.begin() +
                           static_cast<ptrdiff_t>(i));
        SEGIDX_RETURN_IF_ERROR(WriteNode(node_id, node));
        NoteLeafModified(node_id.block);
        const size_t min_fill = static_cast<size_t>(
            options_.min_fill_fraction *
            static_cast<double>(LeafCapacity()));
        *underflow_out = node.records.size() < std::max<size_t>(1, min_fill);
        if (!node.records.empty()) *region_out = node.ComputeMbr();
        return true;
      }
    }
    return false;
  }

  for (size_t i = 0; i < node.branches.size(); ++i) {
    if (!node.branches[i].rect.Contains(rect)) continue;
    // Latch-couple downward: the child is latched before we recurse and
    // stays latched through the condense/Free below, so no other writer
    // can touch it while this frame rewrites the parent.
    NodeLatchTable::Guard child_guard = latch_table_.Acquire(
        node.branches[i].child.block, LatchOrigin::Child(node_id.block));
    Rect child_region = node.branches[i].rect;
    bool child_underflow = false;
    SEGIDX_ASSIGN_OR_RETURN(
        bool found,
        DeleteRecursive(node.branches[i].child, rect, tid, orphans,
                        &child_region, &child_underflow, accesses));
    if (!found) continue;

    if (child_underflow) {
      // CondenseTree: orphan the leaf's remaining records and drop the
      // branch. (Non-leaf nodes are condensed only when empty; see
      // DESIGN.md.)
      SEGIDX_ASSIGN_OR_RETURN(Node child,
                              ReadNode(node.branches[i].child, accesses));
      bool drop = false;
      if (child.is_leaf()) {
        for (const LeafEntry& e : child.records) {
          orphans->emplace_back(e.rect, e.tid);
        }
        drop = true;
      } else if (child.branches.empty()) {
        drop = true;
      }
      if (drop) {
        SEGIDX_RETURN_IF_ERROR(pager_->Free(node.branches[i].child));
        ForgetLeaf(node.branches[i].child.block);
        node.branches.erase(node.branches.begin() +
                            static_cast<ptrdiff_t>(i));
      }
    } else {
      node.branches[i].rect = child_region;
    }

    SEGIDX_RETURN_IF_ERROR(WriteNode(node_id, node));
    *underflow_out = node.branches.empty();
    if (!node.branches.empty()) *region_out = node.ComputeMbr();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Skeleton support
// ---------------------------------------------------------------------------

Status RTree::PreBuild(const SkeletonSpec& spec) {
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kExclusive);
  if (record_count_ != 0 || root_level_ != 0) {
    return FailedPreconditionError("PreBuild requires an empty tree");
  }
  if (spec.levels.empty()) {
    return InvalidArgumentError("skeleton spec has no levels");
  }
  for (const SkeletonLevel& level : spec.levels) {
    if (level.x_bounds.size() < 2 || level.y_bounds.size() < 2) {
      return InvalidArgumentError("skeleton level needs >= 1 cell per dim");
    }
  }

  // Free the fresh empty root created by Create().
  SEGIDX_RETURN_IF_ERROR(pager_->Free(root_));
  ForgetLeaf(root_.block);

  // Build each level bottom-up. prev[j][i] is the child node of cell (i, j)
  // of the previous (lower) level, with its region.
  struct Cell {
    storage::PageId id;
    Rect rect;
  };
  std::vector<std::vector<Cell>> prev;  // prev[y][x]

  for (size_t li = 0; li < spec.levels.size(); ++li) {
    const SkeletonLevel& lvl = spec.levels[li];
    const size_t nx = lvl.x_bounds.size() - 1;
    const size_t ny = lvl.y_bounds.size() - 1;
    std::vector<std::vector<Cell>> current(
        ny, std::vector<Cell>(nx));

    // For upper levels, assign each child cell to the parent cell whose
    // bounds contain it. Bounds of level li are subsets of level li-1's, so
    // containment is exact; a linear merge keeps this O(cells).
    for (size_t cy = 0; cy < ny; ++cy) {
      for (size_t cx = 0; cx < nx; ++cx) {
        const Rect cell_rect(
            Interval(lvl.x_bounds[cx], lvl.x_bounds[cx + 1]),
            Interval(lvl.y_bounds[cy], lvl.y_bounds[cy + 1]));
        Node node;
        node.level = static_cast<uint16_t>(li);
        if (li > 0) {
          const SkeletonLevel& below = spec.levels[li - 1];
          const size_t bx = below.x_bounds.size() - 1;
          const size_t by = below.y_bounds.size() - 1;
          for (size_t qy = 0; qy < by; ++qy) {
            for (size_t qx = 0; qx < bx; ++qx) {
              const Cell& child = prev[qy][qx];
              if (cell_rect.Contains(child.rect)) {
                node.branches.push_back(BranchEntry{child.rect, child.id});
              }
            }
          }
          if (node.branches.empty()) {
            return InvalidArgumentError(
                "skeleton level bounds do not nest (empty parent cell)");
          }
          if (node.branches.size() >
              BranchCapacity(static_cast<int>(li))) {
            return InvalidArgumentError(
                "skeleton cell fanout exceeds branch capacity");
          }
        }
        SEGIDX_ASSIGN_OR_RETURN(
            storage::PageHandle page,
            pager_->Allocate(SizeClassForLevel(static_cast<int>(li))));
        SEGIDX_RETURN_IF_ERROR(node.Serialize(page.data(), page.size()));
        page.MarkDirty();
        current[cy][cx] = Cell{page.id(), cell_rect};
        if (li == 0) leaf_mod_counts_[page.id().block] = 0;
      }
    }
    prev = std::move(current);
  }

  // Root node over the cells of the top level.
  const size_t top_cells = prev.size() * prev[0].size();
  Node root;
  root.level = static_cast<uint16_t>(spec.levels.size());
  if (top_cells > BranchCapacity(root.level)) {
    return InvalidArgumentError("top skeleton level exceeds root capacity");
  }
  Rect region;
  bool first = true;
  for (const auto& row : prev) {
    for (const Cell& cell : row) {
      root.branches.push_back(BranchEntry{cell.rect, cell.id});
      region = first ? cell.rect : region.Enclose(cell.rect);
      first = false;
    }
  }
  SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                          pager_->Allocate(SizeClassForLevel(root.level)));
  SEGIDX_RETURN_IF_ERROR(root.Serialize(page.data(), page.size()));
  page.MarkDirty();
  root_ = page.id();
  root_level_ = root.level;
  root_region_ = region;
  root_region_valid_ = true;
  return Status::OK();
}

Result<int> RTree::CoalesceSparseLeaves(int max_candidates) {
  // Exclusive: the walk assumes a frozen structure, and the merge loop
  // rewrites parents without latch-coupling.
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kExclusive);
  if (max_candidates <= 0 || root_level_ == 0) return 0;

  // Walk the non-leaf levels once, collecting every leaf with its parent.
  struct LeafInfo {
    storage::PageId id;
    storage::PageId parent;
    uint64_t mods = 0;
  };
  std::vector<LeafInfo> leaves;
  std::vector<storage::PageId> stack{root_};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    SEGIDX_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    if (node.level == 1) {
      for (const BranchEntry& b : node.branches) {
        LeafInfo info;
        info.id = b.child;
        info.parent = id;
        auto it = leaf_mod_counts_.find(b.child.block);
        info.mods = it == leaf_mod_counts_.end() ? 0 : it->second;
        leaves.push_back(info);
      }
    } else {
      for (const BranchEntry& b : node.branches) stack.push_back(b.child);
    }
  }

  std::sort(leaves.begin(), leaves.end(),
            [](const LeafInfo& a, const LeafInfo& b) {
              if (a.mods != b.mods) return a.mods < b.mods;
              return a.id.block < b.id.block;
            });

  int merged = 0;
  std::vector<std::pair<Rect, TupleId>> reinserts;
  std::vector<uint32_t> consumed;  // Leaf blocks merged away this pass.
  const int limit =
      std::min<int>(max_candidates, static_cast<int>(leaves.size()));

  for (int c = 0; c < limit; ++c) {
    const LeafInfo& candidate = leaves[c];
    if (std::find(consumed.begin(), consumed.end(), candidate.id.block) !=
        consumed.end()) {
      continue;
    }
    SEGIDX_ASSIGN_OR_RETURN(Node parent, ReadNode(candidate.parent));
    const int cand_idx = parent.FindBranch(candidate.id);
    if (cand_idx < 0) continue;  // Restructured earlier in this pass.
    SEGIDX_ASSIGN_OR_RETURN(Node cand_node, ReadNode(candidate.id));

    // Absorb adjacent same-parent siblings while the union still fits in
    // one leaf; the merged region grows, so re-scan after every merge.
    bool parent_dirty = false;
    bool absorbed = true;
    while (absorbed) {
      absorbed = false;
      const int idx = parent.FindBranch(candidate.id);
      SEGIDX_CHECK_GE(idx, 0);
      for (size_t s = 0; s < parent.branches.size(); ++s) {
        if (static_cast<int>(s) == idx) continue;
        const BranchEntry& sib_branch = parent.branches[s];
        if (!sib_branch.rect.Intersects(parent.branches[idx].rect)) {
          continue;  // Not spatially adjacent.
        }
        SEGIDX_ASSIGN_OR_RETURN(Node sib_node, ReadNode(sib_branch.child));
        if (cand_node.records.size() + sib_node.records.size() >
            LeafCapacity()) {
          continue;
        }

        // Merge the sibling into the candidate.
        cand_node.records.insert(cand_node.records.end(),
                                 sib_node.records.begin(),
                                 sib_node.records.end());
        const storage::PageId sib_id = sib_branch.child;
        const Rect merged_rect =
            parent.branches[idx].rect.Enclose(sib_branch.rect);
        parent.branches[idx].rect = merged_rect;
        parent.branches.erase(parent.branches.begin() +
                              static_cast<ptrdiff_t>(s));

        // Re-home spanning records that referenced either merged child.
        if (!parent.spanning.empty()) {
          const uint64_t cand_enc = candidate.id.Encode();
          const uint64_t sib_enc = sib_id.Encode();
          std::vector<SpanningEntry> keep;
          keep.reserve(parent.spanning.size());
          for (SpanningEntry span : parent.spanning) {
            if (span.linked_child != cand_enc &&
                span.linked_child != sib_enc) {
              keep.push_back(span);
              continue;
            }
            if (span.rect.SpansRegion(merged_rect)) {
              span.linked_child = cand_enc;
              keep.push_back(span);
              BumpTreeStat(stats_.relinks);
              continue;
            }
            // Try any other branch on the parent.
            bool relinked = false;
            for (const BranchEntry& b : parent.branches) {
              if (span.rect.SpansRegion(b.rect)) {
                span.linked_child = b.child.Encode();
                keep.push_back(span);
                relinked = true;
                BumpTreeStat(stats_.relinks);
                break;
              }
            }
            if (!relinked) {
              BumpTreeStat(stats_.demotions);
              reinserts.emplace_back(span.rect, span.tid);
            }
          }
          parent.spanning = std::move(keep);
        }

        SEGIDX_RETURN_IF_ERROR(pager_->Free(sib_id));
        leaf_mod_counts_[candidate.id.block] +=
            leaf_mod_counts_[sib_id.block];
        ForgetLeaf(sib_id.block);
        consumed.push_back(sib_id.block);
        parent_dirty = true;
        absorbed = true;
        ++merged;
        BumpTreeStat(stats_.coalesced_nodes);
        break;
      }
    }
    if (parent_dirty) {
      SEGIDX_RETURN_IF_ERROR(WriteNode(candidate.id, cand_node));
      SEGIDX_RETURN_IF_ERROR(WriteNode(candidate.parent, parent));
    }
  }

  // Records displaced by re-homing go back through normal insertion
  // (physical reinsertion: no change to the logical record count).
  for (const auto& [r, t] : reinserts) {
    InsertContext ctx;
    SEGIDX_RETURN_IF_ERROR(InsertOne(r, t, &ctx));
    SEGIDX_RETURN_IF_ERROR(ProcessDemotions(&ctx));
    int iterations = 0;
    while (!ctx.reinserts.empty()) {
      if (++iterations > kMaxReinsertIterations) {
        return InternalError("reinsertion cascade did not terminate");
      }
      auto [rr, tt] = ctx.reinserts.back();
      ctx.reinserts.pop_back();
      InsertContext inner;
      SEGIDX_RETURN_IF_ERROR(InsertOne(rr, tt, &inner));
      SEGIDX_RETURN_IF_ERROR(ProcessDemotions(&inner));
      for (auto& pending : inner.reinserts) {
        ctx.reinserts.push_back(std::move(pending));
      }
    }
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

namespace {

// Recursion helper for DumpStructure.
struct DumpFrame {
  storage::PageId id;
  Rect region;
  int depth;
};

}  // namespace

Status RTree::DumpStructure(std::ostream& os, int max_depth) {
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kExclusive);
  std::vector<DumpFrame> stack{{root_, root_region_, 0}};
  char line[256];
  while (!stack.empty()) {
    const DumpFrame frame = stack.back();
    stack.pop_back();
    SEGIDX_ASSIGN_OR_RETURN(Node node, ReadNode(frame.id));
    const std::string indent(static_cast<size_t>(frame.depth) * 2, ' ');
    if (node.is_leaf()) {
      std::snprintf(line, sizeof(line), "%sleaf @%u %s: %zu records\n",
                    indent.c_str(), frame.id.block,
                    frame.region.ToString().c_str(), node.records.size());
      os << line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%slevel-%u @%u %s: %zu branches, %zu spanning\n",
                  indent.c_str(), node.level, frame.id.block,
                  frame.region.ToString().c_str(), node.branches.size(),
                  node.spanning.size());
    os << line;
    for (const SpanningEntry& s : node.spanning) {
      std::snprintf(line, sizeof(line), "%s  ~ span %s tid=%llu -> @%u\n",
                    indent.c_str(), s.rect.ToString().c_str(),
                    static_cast<unsigned long long>(s.tid),
                    storage::PageId::Decode(s.linked_child).block);
      os << line;
    }
    if (max_depth >= 0 && frame.depth >= max_depth) {
      std::snprintf(line, sizeof(line), "%s  ... (%zu subtrees elided)\n",
                    indent.c_str(), node.branches.size());
      os << line;
      continue;
    }
    // Push in reverse so branches print in stored order.
    for (size_t i = node.branches.size(); i-- > 0;) {
      stack.push_back(
          {node.branches[i].child, node.branches[i].rect, frame.depth + 1});
    }
  }
  return Status::OK();
}

Result<std::vector<RTree::LevelStats>> RTree::CollectLevelStats() {
  PhaseGate::Scope gate(&gate_, PhaseGate::Mode::kExclusive);
  std::vector<LevelStats> stats(static_cast<size_t>(root_level_) + 1);
  struct Item {
    storage::PageId id;
    Rect region;
    int level;  // Expected: the parent's level minus one.
  };
  std::vector<Item> stack{{root_, root_region_, root_level_}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    SEGIDX_ASSIGN_OR_RETURN(Node node, ReadNode(item.id));
    if (static_cast<int>(node.level) != item.level) {
      return CorruptionError("node page at block " +
                             std::to_string(item.id.block) + " has level " +
                             std::to_string(node.level) + ", expected " +
                             std::to_string(item.level));
    }
    LevelStats& level = stats[node.level];
    ++level.nodes;
    level.branch_entries +=
        node.is_leaf() ? node.records.size() : node.branches.size();
    level.spanning_entries += node.spanning.size();
    level.avg_region_width += item.region.x.length();
    level.avg_region_height += item.region.y.length();
    level.max_region_width =
        std::max(level.max_region_width, item.region.x.length());
    for (const BranchEntry& b : node.branches) {
      stack.push_back({b.child, b.rect, item.level - 1});
    }
  }
  for (LevelStats& level : stats) {
    if (level.nodes > 0) {
      level.avg_region_width /= static_cast<double>(level.nodes);
      level.avg_region_height /= static_cast<double>(level.nodes);
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Metadata persistence
// ---------------------------------------------------------------------------

Status RTree::SaveMeta() {
  uint8_t buf[kTreeMetaBytes] = {0};
  storage::EncodeU32(buf, kTreeMetaMagic);
  storage::EncodeU16(buf + 4, kTreeMetaVersion);
  storage::EncodeU16(buf + 6, static_cast<uint16_t>(root_level_));
  storage::EncodeU64(buf + 8, root_.Encode());
  storage::EncodeU64(buf + 16, record_count_);
  storage::EncodeDouble(buf + 24, root_region_.x.lo);
  storage::EncodeDouble(buf + 32, root_region_.x.hi);
  storage::EncodeDouble(buf + 40, root_region_.y.lo);
  storage::EncodeDouble(buf + 48, root_region_.y.hi);
  uint8_t flags = 0;
  if (options_.double_node_size_per_level) flags |= 1;
  if (options_.enable_spanning) flags |= 2;
  if (root_region_valid_) flags |= 4;
  flags |= static_cast<uint8_t>(options_.spanning_overflow_policy) << 3;
  buf[56] = flags;
  buf[57] = static_cast<uint8_t>(options_.split_algorithm);
  storage::EncodeDouble(buf + 58, options_.branch_fraction);
  storage::EncodeDouble(buf + 66, options_.min_fill_fraction);
  return pager_->SetUserMeta(buf, sizeof(buf));
}

Status RTree::LoadMeta() {
  const std::vector<uint8_t>& meta = pager_->user_meta();
  if (meta.size() < kTreeMetaBytes) {
    return CorruptionError("tree metadata missing or truncated");
  }
  const uint8_t* buf = meta.data();
  if (storage::DecodeU32(buf) != kTreeMetaMagic) {
    return CorruptionError("bad tree metadata magic");
  }
  if (storage::DecodeU16(buf + 4) != kTreeMetaVersion) {
    return CorruptionError("unsupported tree metadata version");
  }
  root_level_ = storage::DecodeU16(buf + 6);
  root_ = storage::PageId::Decode(storage::DecodeU64(buf + 8));
  if (!root_.valid()) {
    return CorruptionError("tree metadata root pointer is corrupt");
  }
  record_count_ = storage::DecodeU64(buf + 16);
  root_region_.x.lo = storage::DecodeDouble(buf + 24);
  root_region_.x.hi = storage::DecodeDouble(buf + 32);
  root_region_.y.lo = storage::DecodeDouble(buf + 40);
  root_region_.y.hi = storage::DecodeDouble(buf + 48);
  const uint8_t flags = buf[56];
  options_.double_node_size_per_level = (flags & 1) != 0;
  options_.enable_spanning = (flags & 2) != 0;
  root_region_valid_ = (flags & 4) != 0;
  const uint8_t policy = (flags >> 3) & 3;
  if (policy > static_cast<uint8_t>(SpanningOverflowPolicy::kEvictSmallest)) {
    return CorruptionError("unknown spanning overflow policy");
  }
  options_.spanning_overflow_policy =
      static_cast<SpanningOverflowPolicy>(policy);
  options_.split_algorithm = static_cast<SplitAlgorithm>(buf[57]);
  options_.branch_fraction = storage::DecodeDouble(buf + 58);
  options_.min_fill_fraction = storage::DecodeDouble(buf + 66);
  return Status::OK();
}

}  // namespace segidx::rtree
