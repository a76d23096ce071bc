// Runtime lock-order validation (lockdep) for the concurrency contract.
//
// docs/CONCURRENCY.md states the hierarchy — phase gate, then node latches
// top-down, then the short leaf mutexes, with the pager's own internal
// order below — as prose. This validator turns the rules into aborts:
// compiled in under -DSEGIDX_LOCKDEP=1 (CMake option SEGIDX_LOCKDEP), it
// keeps a per-thread stack of held locks and a global acquired-before
// graph over lock *classes*, and kills the process with both acquisition
// stacks the moment any thread closes an ordering cycle — even if the
// actual interleaving this run never deadlocks. With the option off, every
// hook below is an empty inline and the contract costs nothing.
//
// Beyond the generic graph, three repo-specific rules are enforced
// directly because the graph cannot express them:
//
//   * Phase discipline: node latches may only be acquired by a thread
//     inside a write or exclusive phase, and a thread may not re-enter a
//     gate it is already inside (self-deadlock against the fairness
//     rotation), nor enter any gate while holding a node latch.
//   * Crabbing: acquiring a non-root node latch requires declaring the
//     parent (NodeLatchTable::LatchOrigin::Child) and actually holding that
//     parent's latch; the standalone protocols (root retry loop, SR-Tree
//     demotion drain) must hold no node latch at all.
//   * Leaf locks: NodeLatchTable::map_mu_ may never be held while
//     acquiring anything, and no two pager partition latches may ever be
//     held at once (shards are strictly one-at-a-time).
//
// Violations abort via std::abort after printing the offending stacks, so
// death tests (tests/lockdep_test.cc) can seed breaches and assert they
// are caught.

#ifndef SEGIDX_CHECK_LOCK_ORDER_H_
#define SEGIDX_CHECK_LOCK_ORDER_H_

#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace segidx::check {

// Every blocking primitive in the system belongs to one class. The
// acquired-before graph is built over classes, not instances: one
// violating pair of instances poisons the class pair, which is exactly
// what a hierarchy rule means. (Node latches are the deliberate
// exception — same-class nesting is their crabbing protocol, checked by
// the parent-declaration rule instead.)
enum class LockClass : int {
  kSkeleton = 0,    // core::IntervalIndex::skeleton_mu_ (above the gate).
  kPhaseGate,       // rtree::PhaseGate phase membership.
  kNodeLatch,       // rtree::NodeLatchTable entry latches (crabbing).
  kLatchMap,        // rtree::NodeLatchTable::map_mu_ (leaf; never blocks).
  kTreeMeta,        // rtree::RTree::meta_mu_ (after node latches).
  kTreeLeaf,        // rtree::RTree::leaf_mu_.
  kExecPool,        // exec::WorkerPool scheduler mutex.
  kPagerPartition,  // storage::Pager LRU shard latches (one at a time).
  kPagerAlloc,      // storage::Pager::alloc_mu_ (after a partition latch).
  kPagerQuarantine,  // storage::Pager::quarantine_mu_.
  kPagerCommit,     // storage::Pager::commit_mu_ (group-commit sequencer).
  kServerQueue,     // server::Server request queues / scheduler state.
                    // Strict leaf: never held across index calls or sends.
  kServerConn,      // server::Connection write mutex (frames out whole).
                    // Strict leaf: held only across the socket write.
  kServerDedup,     // server::DedupWindow map mutex. Leaf: taken alone by
                    // the write dispatcher / I/O thread, and under the
                    // exclusive phase by the commit-meta hook.
  kClassCount,
};

const char* LockClassName(LockClass cls);

#if defined(SEGIDX_LOCKDEP)

// Called immediately BEFORE blocking on / releasing a plain mutex of class
// `cls`. `instance` distinguishes objects within a class (recursive
// acquisition of the same instance is always fatal).
void LockdepOnLock(LockClass cls, const void* instance);
void LockdepOnUnlock(LockClass cls, const void* instance);

// Phase-gate membership. `mode` is rtree::PhaseGate::Mode as an int
// (0 read, 1 write, 2 exclusive). Enter is called before blocking on the
// gate; Exit after leaving it.
void LockdepPhaseEnter(const void* gate, int mode);
void LockdepPhaseExit(const void* gate);

// Node-latch acquisition/release. `parent_declared` distinguishes crabbing
// (the caller claims to hold `parent_block`'s latch) from the standalone
// protocols (root retry, demotion drain — no node latch held). Called
// before blocking on the entry latch / after releasing it.
void LockdepNodeLatchAcquire(const void* table, uint32_t block,
                             bool parent_declared, uint32_t parent_block);
void LockdepNodeLatchRelease(const void* table, uint32_t block);

// Test-only: forget the global acquired-before graph and the calling
// thread's held-lock state (other threads' stacks are untouched — reset
// only from quiesced tests).
void LockdepResetForTesting();

#else  // !SEGIDX_LOCKDEP

inline void LockdepOnLock(LockClass, const void*) {}
inline void LockdepOnUnlock(LockClass, const void*) {}
inline void LockdepPhaseEnter(const void*, int) {}
inline void LockdepPhaseExit(const void*) {}
inline void LockdepNodeLatchAcquire(const void*, uint32_t, bool, uint32_t) {}
inline void LockdepNodeLatchRelease(const void*, uint32_t) {}
inline void LockdepResetForTesting() {}

#endif  // SEGIDX_LOCKDEP

// Drop-in replacement for common::MutexLock that reports the acquisition
// to the validator. All latch-bearing classes use this for their plain
// mutexes; with SEGIDX_LOCKDEP off it compiles to exactly MutexLock.
class SCOPED_CAPABILITY TrackedMutexLock {
 public:
  TrackedMutexLock(common::Mutex* mu, LockClass cls) ACQUIRE(mu)
      : mu_(mu), cls_(cls) {
    LockdepOnLock(cls_, mu_);
    mu_->Lock();
  }
  ~TrackedMutexLock() RELEASE() {
    mu_->Unlock();
    LockdepOnUnlock(cls_, mu_);
  }

  TrackedMutexLock(const TrackedMutexLock&) = delete;
  TrackedMutexLock& operator=(const TrackedMutexLock&) = delete;

 private:
  common::Mutex* mu_;
  LockClass cls_;
};

}  // namespace segidx::check

#endif  // SEGIDX_CHECK_LOCK_ORDER_H_
