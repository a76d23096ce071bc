// Concurrency primitives for the tree write path (docs/CONCURRENCY.md).
//
// Two layers:
//
//  * PhaseGate — a three-mode gate (readers share / writers share /
//    exclusive alone) that keeps structurally incompatible operations out
//    of each other's way without per-node reader latches. Searches enter
//    read-shared, Insert/Delete enter write-shared (and rely on node
//    latches below for mutual exclusion among themselves), and whole-tree
//    operations (checkpoint, invariant checks, bulk load, coalescing)
//    enter exclusive. Mode turns rotate when other-mode waiters exist, so
//    no mode can be starved indefinitely.
//
//  * NodeLatchTable — an exclusive latch per live node extent, keyed by
//    the extent's first block. Writers crab these latches down the tree
//    (parent-then-child order only, see docs/CONCURRENCY.md for the
//    deadlock-freedom argument). Readers never touch node latches — they
//    are excluded wholesale by the phase gate.
//
// The contract is machine-checked three ways (docs/CONCURRENCY.md §7):
// clang -Wthread-safety via the annotations below, the SEGIDX_LOCKDEP
// runtime validator hooked into Enter/Acquire (check/lock_order.h), and
// tools/lint/check_concurrency.py (bare Enter/Exit outside Scope, blocking
// under map_mu_). Both classes also count contention (LatchStats) so
// gate/latch waits are visible in `segidx stats`, the server's stats frame
// and segbench's rtree.gate_* / node_latch_* metrics.
//
// Both are self-contained standard-library constructs; neither knows about
// pages or nodes beyond the 32-bit block key.

#ifndef SEGIDX_RTREE_LATCH_H_
#define SEGIDX_RTREE_LATCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "check/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace segidx::rtree {

// Contention counters for the write-path primitives. Snapshot via
// RTree::latch_stats(); a consistent read requires quiescence, like every
// other stats struct in the tree.
struct LatchStats {
  // Phase gate, indexed by PhaseGate::Mode (0 read, 1 write, 2 exclusive).
  uint64_t gate_enters[3] = {0, 0, 0};
  uint64_t gate_blocked[3] = {0, 0, 0};  // Entries that had to wait.
  uint64_t gate_wait_us[3] = {0, 0, 0};  // Total blocked time per mode.
  // Node latch table.
  uint64_t latch_acquires = 0;
  uint64_t latch_blocked = 0;  // Acquires that found the latch held.
  uint64_t latch_wait_us = 0;  // Total blocked time.
};

// Three-way phase gate. Threads in the same shared mode run concurrently;
// threads in different modes never overlap. kExclusive admits one thread
// alone. Fairness: an entering thread yields to waiters of other modes
// (it queues instead of piggybacking on its running mode), and on the last
// exit the turn advances round-robin to the next mode with waiters.
class PhaseGate {
 public:
  enum class Mode : int {
    kRead = 0,       // Shared among searches.
    kWrite = 1,      // Shared among Insert/Delete (node latches arbitrate).
    kExclusive = 2,  // Alone: checkpoint, checks, bulk ops.
  };

  // Prefer Scope. Bare Enter/Exit outside this file is rejected by
  // tools/lint/check_concurrency.py — an early return between them leaks
  // the phase.
  void Enter(Mode mode);
  void Exit(Mode mode);

  // Adds this gate's counters into `out`.
  void AccumulateStats(LatchStats* out) const;

  // RAII scope. Movable so it can be returned from helpers.
  class Scope {
   public:
    Scope() = default;
    Scope(PhaseGate* gate, Mode mode) : gate_(gate), mode_(mode) {
      gate_->Enter(mode_);
    }
    Scope(Scope&& o) noexcept : gate_(o.gate_), mode_(o.mode_) {
      o.gate_ = nullptr;
    }
    Scope& operator=(Scope&& o) noexcept {
      if (this != &o) {
        Release();
        gate_ = o.gate_;
        mode_ = o.mode_;
        o.gate_ = nullptr;
      }
      return *this;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { Release(); }

    void Release() {
      if (gate_ != nullptr) {
        gate_->Exit(mode_);
        gate_ = nullptr;
      }
    }

   private:
    PhaseGate* gate_ = nullptr;
    Mode mode_ = Mode::kRead;
  };

 private:
  bool CanEnterLocked(Mode mode) const REQUIRES(mu_);

  mutable common::Mutex mu_;
  common::CondVar cv_;
  Mode active_mode_ GUARDED_BY(mu_) = Mode::kRead;
  // Mode favored when the gate drains empty.
  Mode turn_ GUARDED_BY(mu_) = Mode::kRead;
  int active_ GUARDED_BY(mu_) = 0;
  // Same-mode waiters still owed entry this turn.
  int admit_quota_ GUARDED_BY(mu_) = 0;
  int waiting_[3] GUARDED_BY(mu_) = {0, 0, 0};
  // Contention counters (LatchStats), updated under mu_ which Enter holds
  // anyway.
  uint64_t enters_[3] GUARDED_BY(mu_) = {0, 0, 0};
  uint64_t blocked_[3] GUARDED_BY(mu_) = {0, 0, 0};
  uint64_t wait_us_[3] GUARDED_BY(mu_) = {0, 0, 0};
};

// Exclusive latch per node extent, keyed by first block number. Entries are
// created on demand and reclaimed when the last interested thread releases,
// so the table stays proportional to the number of concurrently latched
// nodes, not the tree size. The internal map mutex is never held while
// blocking on an entry latch.
class NodeLatchTable {
 public:
  NodeLatchTable() = default;
  NodeLatchTable(const NodeLatchTable&) = delete;
  NodeLatchTable& operator=(const NodeLatchTable&) = delete;

  // How an acquisition satisfies the latch-order contract
  // (docs/CONCURRENCY.md §3). Declared at every call site and checked at
  // runtime by the SEGIDX_LOCKDEP validator.
  struct LatchOrigin {
    // Crabbing: the caller holds `parent`'s latch and is descending.
    static LatchOrigin Child(uint32_t parent) { return {true, parent}; }
    // Root retry protocol / SR-Tree demotion drain: the caller holds no
    // node latch at all.
    static LatchOrigin Standalone() { return {false, 0}; }

    bool has_parent = false;
    uint32_t parent_block = 0;
  };

  // Move-only RAII holder for one latched node.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& o) noexcept : table_(o.table_), entry_(o.entry_) {
      o.table_ = nullptr;
      o.entry_ = nullptr;
    }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        table_ = o.table_;
        entry_ = o.entry_;
        o.table_ = nullptr;
        o.entry_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    void Release();
    bool held() const { return entry_ != nullptr; }
    uint32_t block() const;

   private:
    friend class NodeLatchTable;
    struct Entry {
      common::Mutex mu;
      int refs = 0;  // Guarded by the table's map_mu_.
      uint32_t block = 0;
    };
    Guard(NodeLatchTable* table, Entry* entry)
        : table_(table), entry_(entry) {}

    NodeLatchTable* table_ = nullptr;
    Entry* entry_ = nullptr;
  };

  // Blocks until the latch on `block` is held. The caller must follow the
  // tree latch order (parent before child; see docs/CONCURRENCY.md) and
  // declare how via `origin`.
  Guard Acquire(uint32_t block, LatchOrigin origin);

  // Adds this table's counters into `out`.
  void AccumulateStats(LatchStats* out) const;

 private:
  common::Mutex map_mu_;
  std::unordered_map<uint32_t, std::unique_ptr<Guard::Entry>> entries_
      GUARDED_BY(map_mu_);
  // Contention counters (LatchStats); relaxed — bumped outside map_mu_.
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> blocked_{0};
  std::atomic<uint64_t> wait_us_{0};
};

}  // namespace segidx::rtree

#endif  // SEGIDX_RTREE_LATCH_H_
