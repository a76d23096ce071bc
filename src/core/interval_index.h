// Public facade over the four index types evaluated in the paper:
//
//   kRTree          — Guttman R-Tree (baseline)
//   kSRTree         — Segment R-Tree (Section 3)
//   kSkeletonRTree  — pre-constructed, adaptive R-Tree (Section 4)
//   kSkeletonSRTree — pre-constructed, adaptive SR-Tree (Section 4)
//
// An IntervalIndex owns the whole stack: storage backend, pager (buffer
// pool + extent allocator), tree, and — for skeleton kinds — the
// distribution-prediction / coalescing policy.
//
// Quickstart:
//
//   segidx::core::IndexOptions options;
//   auto index = segidx::core::IntervalIndex::CreateInMemory(
//       segidx::core::IndexKind::kSkeletonSRTree, options).value();
//   index->Insert(segidx::Rect(10, 500, 42, 42), /*tid=*/1);
//   std::vector<segidx::TupleId> hits;
//   index->SearchTuples(segidx::Rect(0, 100, 0, 100), &hits);
//
// Thread safety: Insert/Delete/Search/SearchBatch/Commit may be called
// from any number of threads concurrently. Writers share the tree's write
// phase under per-node latches; searches and batches run read-shared;
// commits batch through the pager's group-commit sequencer. The full
// contract — latch order, what readers may observe, crash guarantees —
// is written down in docs/CONCURRENCY.md.

#ifndef SEGIDX_CORE_INTERVAL_INDEX_H_
#define SEGIDX_CORE_INTERVAL_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/structure_checker.h"
#include "common/geometry.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "skeleton/skeleton_index.h"
#include "srtree/srtree.h"
#include "storage/pager.h"

namespace segidx::core {

enum class IndexKind {
  kRTree = 0,
  kSRTree = 1,
  kSkeletonRTree = 2,
  kSkeletonSRTree = 3,
};

// One query's outcome within a SearchBatch. SearchBatch pre-marks every
// entry kCancelled ("not claimed"); the worker that executes the query
// overwrites `status` with that query's real outcome, so after any batch —
// success, error, cancel, or deadline — each entry states deterministically
// whether its `hits` are valid (status ok), partial (ok + partial), or
// absent.
struct BatchResult {
  Status status = Status::OK();
  std::vector<rtree::SearchHit> hits;
  uint64_t nodes_accessed = 0;
  // With SearchOptions::allow_partial, damaged subtrees are skipped rather
  // than failing the query: `partial` is set and the skipped subtree roots
  // are listed here. Hits outside the skipped subtrees are complete.
  bool partial = false;
  std::vector<storage::PageId> skipped_subtrees;
};

// Stable display name, e.g. "Skeleton SR-Tree".
const char* IndexKindName(IndexKind kind);

inline bool IsSkeleton(IndexKind kind) {
  return kind == IndexKind::kSkeletonRTree ||
         kind == IndexKind::kSkeletonSRTree;
}
inline bool IsSegment(IndexKind kind) {
  return kind == IndexKind::kSRTree || kind == IndexKind::kSkeletonSRTree;
}

struct IndexOptions {
  // Tree behavior. `tree.enable_spanning` is derived from the index kind
  // and must be left false here.
  rtree::TreeOptions tree;
  // Skeleton policy; ignored for non-skeleton kinds.
  skeleton::SkeletonOptions skeleton;
  // Storage: base block size is the leaf node size (paper: 1 KB).
  storage::PagerOptions pager;
};

class IntervalIndex {
 public:
  // Creates an index backed by memory (fast experiments, tests).
  static Result<std::unique_ptr<IntervalIndex>> CreateInMemory(
      IndexKind kind, const IndexOptions& options);

  // Creates an index in a file at `path`, formatting it from scratch (an
  // existing file is truncated).
  static Result<std::unique_ptr<IntervalIndex>> CreateOnDisk(
      IndexKind kind, const std::string& path, const IndexOptions& options);

  // Creates an index on a caller-supplied block device, formatting it from
  // scratch. Useful for fault-injection tests (wrap a MemoryBlockDevice in
  // a FaultInjectingBlockDevice) and custom backends.
  static Result<std::unique_ptr<IntervalIndex>> CreateWithDevice(
      IndexKind kind, std::unique_ptr<storage::BlockDevice> device,
      const IndexOptions& options);

  // Re-opens an index persisted with Commit(). `options.pager` must match
  // the creation-time base block size; tree options are restored from the
  // file. A format v1 file fails with kFailedPrecondition.
  static Result<std::unique_ptr<IntervalIndex>> OpenFromDisk(
      const std::string& path, const IndexOptions& options);

  // Re-opens an index from a caller-supplied device (e.g. a crash image
  // snapshot). Runs the same dual-slot recovery as OpenFromDisk; consult
  // pager()->recovery_report() for what happened.
  static Result<std::unique_ptr<IntervalIndex>> OpenFromDevice(
      std::unique_ptr<storage::BlockDevice> device,
      const IndexOptions& options);

  // Commits once if there are unpersisted mutations, then marks the index
  // closed. Idempotent; later calls return OK without touching storage.
  // The destructor calls Close() and swallows the status — call Close()
  // explicitly to learn whether the final checkpoint made it to disk.
  Status Close();

  ~IntervalIndex();
  IntervalIndex(const IntervalIndex&) = delete;
  IntervalIndex& operator=(const IntervalIndex&) = delete;

  // Inserts a record for a 2-D rectangle (or degenerate interval/point).
  Status Insert(const Rect& rect, TupleId tid);
  // Convenience: a 1-D interval at Y position `y` (paper Figure 1 layout:
  // X = time interval, Y = attribute value).
  Status InsertInterval(const Interval& x, Coord y, TupleId tid);

  // Every stored entry intersecting `query`; a record cut into several
  // pieces (SR-Trees) surfaces once per piece. Forwards to the options
  // overload below with default options.
  Status Search(const Rect& query, std::vector<rtree::SearchHit>* out,
                uint64_t* nodes_accessed = nullptr);
  // Same, with runtime controls (deadline, cancel token, partial results
  // over damaged pages — see rtree::SearchOptions). A still-buffering
  // skeleton index is finalized first, outside the deadline.
  Status Search(const Rect& query, const rtree::SearchOptions& options,
                std::vector<rtree::SearchHit>* out,
                rtree::SearchOutcome* outcome = nullptr);
  // Logical result: distinct tuple ids intersecting `query`.
  Status SearchTuples(const Rect& query, std::vector<TupleId>* out,
                      uint64_t* nodes_accessed = nullptr);

  // Runs a batch of queries on a pool of `num_threads` worker threads
  // (clamped to [1, 64]). Results come back in query order, identical to
  // issuing each query through Search() serially. A still-buffering
  // skeleton index is finalized first (same auto-finalize as Search).
  // The worker pool is created on first use and kept for subsequent
  // batches with the same thread count. Safe to call while other threads
  // mutate: the batch holds the tree's read phase, so it sees a
  // consistent snapshot and its results are deterministic for that
  // snapshot (see docs/CONCURRENCY.md). One batch at a time per index.
  Status SearchBatch(const std::vector<Rect>& queries,
                     std::vector<BatchResult>* results,
                     int num_threads = 4);
  // Same, applying a per-batch deadline / cancel token / partial-results
  // policy to every query. `results` is resized to queries.size(). The
  // batch stops claiming queries after a hard error or a fired cancel
  // token; unclaimed entries stay kCancelled. An expired deadline keeps
  // claiming: each remaining query fails its first deadline check
  // without touching a page. The returned status is derived from the
  // entries in query order: the first hard error wins, else kCancelled,
  // else kDeadlineExceeded, else OK.
  Status SearchBatch(const std::vector<Rect>& queries,
                     const rtree::SearchOptions& options,
                     std::vector<BatchResult>* results,
                     int num_threads = 4);

  // Statically bulk-loads all records into an empty non-skeleton index
  // (packed R-Tree construction, see rtree/bulk_load.h). Skeleton kinds
  // refuse: packing is the static alternative the skeleton replaces.
  Status BulkLoad(std::vector<std::pair<Rect, TupleId>> records,
                  rtree::PackingMethod method = rtree::PackingMethod::kSTR);

  // Removes one entry (plain R-Tree only; see RTree::Delete).
  Status Delete(const Rect& rect, TupleId tid);

  // Skeleton kinds: force skeleton construction from the buffered sample.
  // No-op otherwise.
  Status Finalize();

  // Durable group commit: when Commit() returns OK, every mutation that
  // completed before the call is checkpointed on disk. Concurrent callers
  // are batched through the pager's group-commit sequencer — one
  // checkpoint (and its fsyncs) covers the whole batch, so N writers
  // committing on a cadence amortize the I/O N-fold. See
  // docs/CONCURRENCY.md for the leader/joiner protocol.
  Status Commit();

  // Deep structural validation (tests / debugging): CheckStructure() with
  // default options (containment, spanning links and quotas, page
  // accounting; tightness and strict spanning placement off), reduced to
  // its first violation.
  Status CheckInvariants();

  // Full structural validation with caller-chosen options, returning every
  // violation. See check/structure_checker.h for the invariant set.
  Result<check::CheckReport> CheckStructure(
      const check::CheckOptions& options = {});

  // Online media scrub: CRC-verifies every reachable node page with a light
  // structure pass (level / child-pointer / rectangle sanity), then runs the
  // pager's scrub over the superblock slots and free extents — together the
  // two passes tile the whole file. Rate-limited and cancellable via
  // `options`; safe against a serving (read-only) index. Damaged node pages
  // are quarantined when `options.quarantine_damaged` is set, so subsequent
  // allow_partial searches skip them without re-reading bad media.
  Result<storage::ScrubReport> Scrub(const storage::ScrubOptions& options = {});

  IndexKind kind() const { return kind_; }
  // Skeleton kinds: true while the distribution sample is still buffering
  // (records live in memory, not in the tree). Always false otherwise.
  bool skeleton_building() const {
    return skeleton_ != nullptr && !skeleton_->built();
  }
  uint64_t size() const;
  int height() const { return tree_->height(); }
  // Total bytes of index extents ever allocated (file high-water mark).
  uint64_t index_bytes() const;

  const rtree::TreeStats& tree_stats() const { return tree_->stats(); }
  const storage::StorageStats& storage_stats() const {
    return pager_->stats();
  }
  void ResetStats();

  // Index nodes per level (level 0 first), from CollectLevelStats().
  Result<std::vector<uint64_t>> NodesPerLevel();

  // Escape hatches for tests and benchmarks.
  rtree::RTree* tree() { return tree_.get(); }
  storage::Pager* pager() { return pager_.get(); }

  // Commit-metadata hook: a small blob the owner wants persisted
  // atomically with every checkpoint (the serving layer stores its
  // exactly-once dedup window here). The hook runs inside the commit's
  // exclusive phase, after tree metadata is staged and before the
  // checkpoint, so the blob and the data it describes land in the same
  // durable epoch — or neither does. The blob is size-limited (see
  // kCommitMetaCapacity); an oversized blob fails the commit. Set (or
  // clear with nullptr) only while no concurrent Commit/Close can run.
  using CommitMetaHook = std::function<std::vector<uint8_t>()>;
  void SetCommitMetaHook(CommitMetaHook hook);

  // The commit-metadata blob recovered by OpenFromDisk/OpenFromDevice
  // (empty when the file carries none, e.g. pre-extension files).
  const std::vector<uint8_t>& recovered_commit_meta() const {
    return recovered_commit_meta_;
  }

  // Upper bound on a commit-metadata blob: the pager's user-meta area
  // minus the tree metadata, the blob's own frame, and the facade tail.
  static size_t CommitMetaCapacity();

 private:
  IntervalIndex(IndexKind kind, std::unique_ptr<storage::Pager> pager,
                std::unique_ptr<rtree::RTree> tree,
                std::unique_ptr<skeleton::SkeletonIndex> skeleton)
      : kind_(kind),
        pager_(std::move(pager)),
        tree_(std::move(tree)),
        skeleton_(std::move(skeleton)) {}

  // Shared tail of OpenFromDisk / OpenFromDevice: facade metadata checks
  // plus tree and skeleton resurrection.
  static Result<std::unique_ptr<IntervalIndex>> OpenWithPager(
      std::unique_ptr<storage::Pager> pager, const IndexOptions& options);

  IndexKind kind_;
  std::unique_ptr<storage::Pager> pager_;
  std::unique_ptr<rtree::RTree> tree_;
  std::unique_ptr<skeleton::SkeletonIndex> skeleton_;  // Skeleton kinds only.
  // Lazily created by SearchBatch; rebuilt when the thread count changes.
  std::unique_ptr<exec::WorkerPool> search_pool_;
  // Invoked under the commit's exclusive phase; see SetCommitMetaHook.
  CommitMetaHook commit_meta_hook_;
  std::vector<uint8_t> recovered_commit_meta_;
  // Serializes skeleton sample buffering / finalize (plain memory, unlike
  // the tree's own latched write path). Uncontended for built skeletons.
  // Lock order: held while entering the tree's phase gate (a buffered
  // search builds the tree under it), so kSkeleton sits above kPhaseGate.
  common::Mutex skeleton_mu_;
  // True when mutations have happened since the last successful Commit();
  // Close() only checkpoints when set. Raised by concurrent writers,
  // cleared by the group-commit leader.
  std::atomic<bool> dirty_{false};
  bool closed_ = false;
};

}  // namespace segidx::core

#endif  // SEGIDX_CORE_INTERVAL_INDEX_H_
