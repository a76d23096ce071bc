// A fixed pool of worker threads that fans one indexed loop out at a time.
//
// Run(n, body) calls body(i) once for each index i in [0, n) that a worker
// claims from a shared atomic cursor. Workers claim whole indexes, never
// split one, so each call runs on exactly one thread and a caller can write
// per-index results into disjoint slots. Once any body returns false, no
// further index is claimed; calls already running finish. Run returns when
// every claimed call has returned, and everything those calls wrote is
// visible to the caller. Which indexes ran before a stop depends on worker
// timing, so a caller that needs a per-index verdict records it in its body.
//
// Two users, each with its own pool: IntervalIndex::SearchBatch (searches
// under one read phase) and the server's write dispatcher (insert runs).
// They must not share a pool: a search batch holds the read phase while
// it waits in Run, so a write batch queued behind it on the same pool
// would deadlock. One Run at a time per pool; Run is not reentrant.

#ifndef SEGIDX_EXEC_WORKER_POOL_H_
#define SEGIDX_EXEC_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace segidx::exec {

class WorkerPool {
 public:
  // Starts `num_threads` workers, clamped to [1, 64]. With 1, Run still
  // executes on the (single) worker, exercising the same code path.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Calls body(i) for claimed indexes of [0, n) until the indexes run out
  // or a body returns false; returns once every claimed call has finished.
  void Run(size_t n, const std::function<bool(size_t)>& body);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  common::Mutex mu_;
  common::CondVar work_cv_;  // Workers wait for a run (or shutdown).
  common::CondVar done_cv_;  // Run waits for completion.
  // Bumped once per run.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  // Current run.
  size_t n_ GUARDED_BY(mu_) = 0;
  const std::function<bool(size_t)>* body_ GUARDED_BY(mu_) = nullptr;
  // Workers still in the current run.
  int active_workers_ GUARDED_BY(mu_) = 0;

  std::atomic<size_t> next_{0};         // Next unclaimed index.
  std::atomic<bool> stopped_{false};    // A body returned false.

  std::vector<std::thread> workers_;
};

}  // namespace segidx::exec

#endif  // SEGIDX_EXEC_WORKER_POOL_H_
