// segidxd: an epoll-based socket front end over core::IntervalIndex.
//
// One server owns one index and serves the length-prefixed binary protocol
// in protocol.h (search, insert, delete, commit, stats, health). The
// design goal is to funnel many connections into the small number of
// index-level batch entry points the engine already amortizes:
//
//   * Searches from all connections are coalesced by a dispatcher thread
//     into one IntervalIndex::SearchBatch per round — one read-phase
//     admission per batch, so the whole batch sees a single consistent
//     snapshot (docs/CONCURRENCY.md) and the phase gate rotates once, not
//     once per request.
//   * Consecutive queued inserts are applied by the server's own
//     exec::WorkerPool in chunks of `commit_every`. The write dispatcher
//     is the only checkpoint initiator: it runs one checkpoint per chunk
//     and acknowledges the chunk's inserts after it — N connections'
//     writes share one fsync round.
//   * Explicit kCommit requests arriving together are acknowledged by one
//     checkpoint.
//
// Admission control rides the deadline machinery the tree already has
// (rtree::SearchOptions): each search carries a client budget; a request
// whose deadline expires while queued is answered kDeadlineExceeded
// without touching a page, and a full search queue sheds new arrivals the
// same way. Per-connection in-flight quotas bound what one client can pin.
// A coalesced batch runs under the earliest member deadline; members that
// were cut off by a *peer's* tighter deadline (their own budget still has
// time) are re-queued for the next batch rather than failed.
//
// Threading: one I/O thread (epoll accept/read + stats/health replies),
// one search dispatcher, one write dispatcher, optionally one scrub
// thread; responses are written by whichever dispatcher finished the
// request, serialized per connection by a write mutex. Server mutexes are
// strict leaves in the lock hierarchy (LockClass::kServerQueue /
// kServerConn): never held across an index call or another lock.

#ifndef SEGIDX_SERVER_SERVER_H_
#define SEGIDX_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/interval_index.h"
#include "exec/worker_pool.h"
#include "server/dedup_window.h"
#include "server/protocol.h"

namespace segidx::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  int backlog = 128;

  // Worker width of the coalesced search batches (the index's search
  // pool) and of the insert chunks (the server's write pool).
  int search_threads = 4;
  int write_threads = 2;

  // At most this many searches are coalesced into one read phase.
  size_t max_batch = 64;
  // Pending searches (and separately, pending writes) beyond which new
  // arrivals are shed instead of queued.
  size_t max_queue_depth = 1024;
  // Per-connection limit on requests accepted but not yet answered.
  int max_inflight_per_conn = 64;

  // Insert chunk size: the write dispatcher applies a run of queued
  // inserts in chunks of this many and checkpoints once per chunk
  // (0 = one chunk per run).
  uint64_t commit_every = 512;

  // Server-side deadline applied to searches that carry no client budget
  // (0 = such searches run unbounded).
  uint64_t default_budget_us = 0;

  // A search bounced from a batch by a peer's tighter deadline (or a
  // batch abort) is retried this many times before kUnavailable.
  int max_retries = 3;

  // Connections with no inbound bytes for this long (and no request in
  // flight) are reaped so dead peers stop pinning per-connection quota
  // and fds. 0 disables.
  uint64_t idle_timeout_ms = 0;

  // Background media scrub every interval (0 = disabled). Runs under the
  // read phase, so it coexists with serving searches.
  uint64_t scrub_interval_ms = 0;
  uint64_t scrub_extents_per_second = 4096;

  // Test hook: the search dispatcher sleeps this long after dequeuing a
  // batch and before the deadline check, making queue-expiry paths
  // deterministic in tests. Production leaves it 0.
  uint64_t admission_delay_us = 0;
};

// Monotonic counters, snapshotted for the stats endpoint.
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t commits = 0;
  uint64_t info_requests = 0;  // kStats + kHealth.
  uint64_t responses = 0;
  uint64_t protocol_errors = 0;
  uint64_t send_failures = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_quota = 0;
  uint64_t deadline_expired = 0;
  uint64_t batches = 0;
  uint64_t batch_queries = 0;  // Sum of batch sizes (avg = /batches).
  uint64_t retries = 0;
  uint64_t scrubs_completed = 0;
  uint64_t scrub_defects = 0;
  bool scrub_running = false;
  // Accepts refused for fd/buffer exhaustion (EMFILE and friends), each
  // answered with a backed-off sleep instead of an epoll hot-spin.
  uint64_t accept_overload = 0;
  // Connections reaped by the idle timeout.
  uint64_t idle_reaped = 0;
  // Mutating requests answered from the exactly-once dedup window.
  uint64_t dedup_hits = 0;
  uint64_t hellos = 0;
};

class Server {
 public:
  // The index must outlive the server. The server issues SearchBatch,
  // pooled tree inserts, Delete, Commit, Scrub, and stats reads against it;
  // other threads may keep using the index concurrently (the engine's
  // normal concurrency contract applies).
  Server(core::IntervalIndex* index, const ServerOptions& options);
  ~Server();  // Calls Stop().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the serving threads. Fails without side
  // effects on bind/listen errors.
  Status Start();

  // Graceful shutdown: stop accepting and reading, answer every queued
  // request, run a final commit, close every connection. Idempotent.
  void Stop();

  // Crash-simulating shutdown for fault-tolerance tests: queued requests
  // are dropped unanswered, no final commit runs, and connections are cut
  // mid-stream — from a client's point of view the process died. The
  // index is left exactly as the last checkpoint (plus any uncommitted
  // in-memory state) describes it.
  void Abort();

  // The bound port (after Start()); useful with options.port == 0.
  uint16_t port() const { return port_; }

  ServerStatsSnapshot stats_snapshot() const;

  // The JSON documents served to kStats / kHealth clients (exposed for
  // the CLI and tests).
  std::string BuildStatsJson();
  std::string BuildHealthJson();

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    int fd = -1;
    // Serializes frame writes; also guards the closed flag. Strict leaf
    // lock.
    common::Mutex write_mu;
    // No more writes allowed. Dispatchers may set this (after a send
    // failure they shutdown() the socket but leave the fd open); only the
    // I/O thread — or Stop() after joining it — actually close()s the fd,
    // so a dead connection's fd number cannot be reused while its entry
    // is still in connections_.
    bool closed GUARDED_BY(write_mu) = false;
    // Requests accepted but not yet answered (quota).
    std::atomic<int> inflight{0};
    // Read buffer; touched only by the I/O thread.
    std::vector<uint8_t> inbuf;
    // Last inbound activity; touched only by the I/O thread (accept,
    // drain, and the idle sweep all run there).
    Clock::time_point last_active{};
  };

  struct PendingSearch {
    std::shared_ptr<Connection> conn;
    uint64_t request_id = 0;
    Rect rect;
    bool allow_partial = false;
    std::optional<Clock::time_point> deadline;
    int retries = 0;
  };

  struct PendingWrite {
    std::shared_ptr<Connection> conn;
    uint64_t request_id = 0;
    MsgType type = MsgType::kInsert;
    Rect rect;
    TupleId tid = 0;
    // Exactly-once tail; 0 = sessionless (version-1 client).
    uint64_t session_id = 0;
    uint64_t seq = 0;
  };

  void IoLoop();
  void SearchLoop();
  void WriteLoop();
  void ScrubLoop();

  void AcceptConnections();
  // Closes connections idle past options_.idle_timeout_ms (I/O thread).
  void ReapIdleConnections();
  // Reads everything available; returns false when the connection is done
  // (EOF, error, or protocol violation) and should be dropped.
  bool DrainReadable(const std::shared_ptr<Connection>& conn);
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const uint8_t* data, size_t size);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  void EnqueueSearch(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  void EnqueueWrite(const std::shared_ptr<Connection>& conn,
                    const Request& req);
  // Runs one drained segment of the write queue in arrival order:
  // consecutive inserts become pooled chunks, one checkpoint each;
  // consecutive commits one checkpoint.
  void ExecuteWrites(std::vector<PendingWrite> work);

  // Encodes and writes one response frame; decrements the connection's
  // in-flight count when `counted`.
  void SendResponse(const std::shared_ptr<Connection>& conn, MsgType type,
                    uint64_t request_id, const Status& status,
                    const std::vector<uint8_t>* body = nullptr,
                    bool counted = true);

  core::IntervalIndex* index_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  bool started_ = false;

  std::atomic<bool> stopping_{false};
  // Abort() in progress: skip the final commit and drop queued answers.
  std::atomic<bool> aborting_{false};
  // Cancels an in-flight scrub pass promptly on Stop().
  std::atomic<bool> scrub_cancel_{false};

  // Exactly-once window for session-tagged mutations; serialized into the
  // checkpoint metadata via the index's commit-meta hook.
  DedupWindow dedup_;

  // Accept-failure backoff (EMFILE and friends); I/O thread only.
  uint64_t accept_backoff_ms_ = 1;

  // Request queues. queue_mu_ is a strict leaf: dispatchers move work out
  // under it, release it, then touch the index / sockets.
  common::Mutex queue_mu_;
  common::CondVar search_cv_;
  common::CondVar write_cv_;
  common::CondVar scrub_cv_;
  std::deque<PendingSearch> search_queue_ GUARDED_BY(queue_mu_);
  std::deque<PendingWrite> write_queue_ GUARDED_BY(queue_mu_);

  // Owned by the I/O thread while running; read by Stop() after the join.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Applies insert chunks; separate from the index's search pool (see
  // exec/worker_pool.h).
  std::unique_ptr<exec::WorkerPool> write_pool_;

  std::thread io_thread_;
  std::thread search_thread_;
  std::thread write_thread_;
  std::thread scrub_thread_;

  // Stats counters (relaxed; monotonic).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> searches_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> info_requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> send_failures_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_quota_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_queries_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> scrubs_completed_{0};
  std::atomic<uint64_t> scrub_defects_{0};
  std::atomic<bool> scrub_running_{false};
  std::atomic<uint64_t> accept_overload_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<uint64_t> hellos_{0};
};

}  // namespace segidx::server

#endif  // SEGIDX_SERVER_SERVER_H_
