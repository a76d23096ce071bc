#include "exec/worker_pool.h"

#include <algorithm>

#include "check/lock_order.h"

namespace segidx::exec {

namespace {
using check::LockClass;
using check::TrackedMutexLock;
}  // namespace

WorkerPool::WorkerPool(int num_threads) {
  const int n = std::clamp(num_threads, 1, 64);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    TrackedMutexLock lock(&mu_, LockClass::kExecPool);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::Run(size_t n, const std::function<bool(size_t)>& body) {
  if (n == 0) return;
  TrackedMutexLock lock(&mu_, LockClass::kExecPool);
  n_ = n;
  body_ = &body;
  next_.store(0, std::memory_order_relaxed);
  stopped_.store(false, std::memory_order_relaxed);
  active_workers_ = static_cast<int>(workers_.size());
  ++generation_;
  work_cv_.NotifyAll();
  while (active_workers_ != 0) done_cv_.Wait(&mu_);
  body_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  uint64_t seen_gen = 0;
  for (;;) {
    size_t n;
    const std::function<bool(size_t)>* body;
    {
      TrackedMutexLock lock(&mu_, LockClass::kExecPool);
      while (!shutdown_ && generation_ == seen_gen) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_gen = generation_;
      n = n_;
      body = body_;
    }

    while (!stopped_.load(std::memory_order_relaxed)) {
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (!(*body)(i)) {
        stopped_.store(true, std::memory_order_relaxed);
        break;
      }
    }

    {
      TrackedMutexLock lock(&mu_, LockClass::kExecPool);
      if (--active_workers_ == 0) done_cv_.NotifyAll();
    }
  }
}

}  // namespace segidx::exec
