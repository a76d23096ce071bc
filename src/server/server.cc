#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "check/lock_order.h"
#include "rtree/latch.h"
#include "server/faulty_transport.h"
#include "storage/pager.h"

namespace segidx::server {

using check::LockClass;
using check::TrackedMutexLock;

namespace {

// Bounded wait for a stalled peer's socket buffer to drain before the
// connection is declared dead. Keeps a slow client from pinning a
// dispatcher thread forever.
constexpr int kWriteStallTimeoutMs = 5000;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

}  // namespace

Server::Server(core::IntervalIndex* index, const ServerOptions& options)
    : index_(index), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return FailedPreconditionError("server already started");

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return IoError("socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        IoError("bind(" + options_.host + ":" +
                std::to_string(options_.port) + "): " + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, options_.backlog) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return IoError("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return IoError("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);

  if (auto st = SetNonBlocking(listen_fd_); !st.ok()) {
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return IoError("pipe2() failed");
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    close(listen_fd_);
    close(wake_pipe_[0]);
    close(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
    return IoError("epoll_create1() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_pipe_[0];
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev);

  // Pool workers only insert; the write dispatcher is the only checkpoint
  // initiator while serving, so it can record exactly-once verdicts in
  // the dedup window *before* the checkpoint that persists them — a
  // worker-initiated commit could otherwise race the window update and
  // persist data without the verdicts that acknowledge it.
  write_pool_ = std::make_unique<exec::WorkerPool>(options_.write_threads);

  // The dedup window travels with every checkpoint (the hook runs inside
  // Commit, under the pager's exclusive phase) and is restored from the
  // last checkpoint on open — an acked session write and its verdict are
  // durable together or not at all.
  if (Status st = dedup_.Load(index_->recovered_commit_meta()); !st.ok()) {
    // A window we cannot parse only costs dedup coverage for sessions
    // from before the restart; serving with an empty window is safe
    // (retries re-apply, which the torture's oracle flags — but a corrupt
    // window means the checkpoint itself was damaged, which recovery
    // rejects first).
    std::fprintf(stderr, "segidxd: dedup window not restored: %s\n",
                 st.message().c_str());
  }
  index_->SetCommitMetaHook([this] { return dedup_.Serialize(); });

  stopping_.store(false, std::memory_order_relaxed);
  aborting_.store(false, std::memory_order_relaxed);
  scrub_cancel_.store(false, std::memory_order_relaxed);
  io_thread_ = std::thread(&Server::IoLoop, this);
  search_thread_ = std::thread(&Server::SearchLoop, this);
  write_thread_ = std::thread(&Server::WriteLoop, this);
  if (options_.scrub_interval_ms > 0) {
    scrub_thread_ = std::thread(&Server::ScrubLoop, this);
  }
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  {
    // Store the predicate under queue_mu_ so it cannot land inside a
    // dispatcher's check-to-wait window: a waiter either sees the flag
    // before sleeping or is already in Wait when the notify arrives.
    TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  // Abort an in-flight scrub pass: rate-limited scrubs over a large index
  // would otherwise pin scrub_thread_.join() for a very long time.
  scrub_cancel_.store(true, std::memory_order_relaxed);
  // Wake everyone: dispatchers drain their queues and exit; the I/O
  // thread returns from epoll_wait and stops reading.
  search_cv_.NotifyAll();
  write_cv_.NotifyAll();
  scrub_cv_.NotifyAll();
  const char byte = 0;
  ssize_t ignored = write(wake_pipe_[1], &byte, 1);
  (void)ignored;

  io_thread_.join();
  search_thread_.join();
  write_thread_.join();
  if (scrub_thread_.joinable()) scrub_thread_.join();
  // Dispatchers are gone, so no insert chunk can run again; tear the pool
  // down before the final checkpoint.
  write_pool_.reset();

  // Final durability point for everything acknowledged above. Ignore the
  // status: a degraded (read-only) index legitimately refuses.
  // Abort() skips it on purpose — a crash does not get a goodbye
  // checkpoint.
  if (!aborting_.load(std::memory_order_relaxed)) (void)index_->Commit();
  index_->SetCommitMetaHook(nullptr);

  // Any connection still in the map never went through CloseConnection,
  // so its fd is open even if a dispatcher already marked it closed.
  for (auto& [fd, conn] : connections_) {
    TrackedMutexLock lock(&conn->write_mu, LockClass::kServerConn);
    conn->closed = true;
    close(conn->fd);
  }
  connections_.clear();
  close(listen_fd_);
  close(epoll_fd_);
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
  listen_fd_ = epoll_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

void Server::Abort() {
  aborting_.store(true, std::memory_order_seq_cst);
  Stop();
}

// --- I/O thread -------------------------------------------------------------

void Server::IoLoop() {
  std::vector<epoll_event> events(64);
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_pipe_[0]) continue;  // Drained on shutdown only.
      if (fd == listen_fd_) {
        AcceptConnections();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 ||
          !DrainReadable(it->second)) {
        CloseConnection(it->second);
        connections_.erase(it);
      }
    }
    if (options_.idle_timeout_ms > 0) ReapIdleConnections();
  }
}

void Server::AcceptConnections() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds/buffers. The listen fd is level-triggered, so epoll
        // would re-arm instantly and spin the I/O thread at 100% while
        // the condition lasts; sleep with a capped exponential backoff
        // instead. Connections in the backlog wait; the idle reaper and
        // normal closes free fds meanwhile.
        accept_overload_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(accept_backoff_ms_));
        accept_backoff_ms_ = std::min<uint64_t>(accept_backoff_ms_ * 2, 200);
      }
      return;  // EAGAIN or a transient error; epoll retries.
    }
    accept_backoff_ms_ = 1;
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_active = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ReapIdleConnections() {
  const Clock::time_point cutoff =
      Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto it = connections_.begin(); it != connections_.end();) {
    const std::shared_ptr<Connection>& conn = it->second;
    // Never reap a connection with an answer pending: a dispatcher may be
    // about to write to it, and "idle" means the *peer* went quiet, not
    // that we are slow.
    if (conn->inflight.load(std::memory_order_relaxed) == 0 &&
        conn->last_active < cutoff) {
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(conn);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  // Close under the write mutex so no dispatcher can write to a reused fd
  // number: writers re-check `closed` under the same lock. The close is
  // unconditional — `closed` may already be set by SendResponse's failure
  // path, which shuts the socket down but leaves the fd open for us.
  TrackedMutexLock lock(&conn->write_mu, LockClass::kServerConn);
  conn->closed = true;
  close(conn->fd);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::DrainReadable(const std::shared_ptr<Connection>& conn) {
  uint8_t chunk[16 * 1024];
  for (;;) {
    const ssize_t got = transport::Read(conn->fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // Peer closed.
    conn->last_active = Clock::now();
    conn->inbuf.insert(conn->inbuf.end(), chunk, chunk + got);
  }
  // Extract every complete frame.
  size_t consumed = 0;
  while (conn->inbuf.size() - consumed >= 4) {
    const uint32_t len = storage::DecodeU32(conn->inbuf.data() + consumed);
    if (len == 0 || len > kMaxFrameBytes) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (conn->inbuf.size() - consumed < 4 + static_cast<size_t>(len)) break;
    if (!HandleFrame(conn, conn->inbuf.data() + consumed + 4, len)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    consumed += 4 + static_cast<size_t>(len);
  }
  if (consumed > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<long>(consumed));
  }
  return true;
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const uint8_t* data, size_t size) {
  Request req;
  if (!DecodeRequest(data, size, &req)) return false;
  switch (req.type) {
    case MsgType::kSearch:
      searches_.fetch_add(1, std::memory_order_relaxed);
      if (!req.rect.valid()) {
        SendResponse(conn, req.type, req.request_id,
                     InvalidArgumentError("invalid query rectangle"),
                     nullptr, /*counted=*/false);
        return true;
      }
      EnqueueSearch(conn, req);
      return true;
    case MsgType::kInsert:
    case MsgType::kDelete:
      (req.type == MsgType::kInsert ? inserts_ : deletes_)
          .fetch_add(1, std::memory_order_relaxed);
      if (!req.rect.valid()) {
        // Reject here: one bad rect inside an insert chunk would stop the
        // chunk for its neighbors.
        SendResponse(conn, req.type, req.request_id,
                     InvalidArgumentError("invalid rectangle"), nullptr,
                     /*counted=*/false);
        return true;
      }
      EnqueueWrite(conn, req);
      return true;
    case MsgType::kCommit:
      commits_.fetch_add(1, std::memory_order_relaxed);
      EnqueueWrite(conn, req);
      return true;
    case MsgType::kHello: {
      // Session handshake: tell the client our protocol version and the
      // highest sequence number its session has resolved, so a
      // reconnecting client knows which in-doubt retries are settled.
      hellos_.fetch_add(1, std::memory_order_relaxed);
      const HelloReply reply{
          kProtocolVersion,
          req.session_id != 0 ? dedup_.LastSeq(req.session_id) : 0};
      const std::vector<uint8_t> body = EncodeHelloBody(reply);
      SendResponse(conn, req.type, req.request_id, Status::OK(), &body,
                   /*counted=*/false);
      return true;
    }
    case MsgType::kStats:
    case MsgType::kHealth: {
      info_requests_.fetch_add(1, std::memory_order_relaxed);
      const std::string json = req.type == MsgType::kStats
                                   ? BuildStatsJson()
                                   : BuildHealthJson();
      std::vector<uint8_t> body(json.begin(), json.end());
      SendResponse(conn, req.type, req.request_id, Status::OK(), &body,
                   /*counted=*/false);
      return true;
    }
  }
  return false;
}

void Server::EnqueueSearch(const std::shared_ptr<Connection>& conn,
                           const Request& req) {
  if (conn->inflight.load(std::memory_order_relaxed) >=
      options_.max_inflight_per_conn) {
    shed_quota_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, req.type, req.request_id,
                 ResourceExhaustedError(
                     "per-connection quota: too many requests in flight"),
                 nullptr, /*counted=*/false);
    return;
  }
  PendingSearch pending;
  pending.conn = conn;
  pending.request_id = req.request_id;
  pending.rect = req.rect;
  pending.allow_partial = req.allow_partial;
  const uint64_t budget =
      req.budget_us != 0 ? req.budget_us : options_.default_budget_us;
  if (budget != 0) {
    pending.deadline = Clock::now() + std::chrono::microseconds(budget);
  }
  bool shed = false;
  {
    TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
    if (search_queue_.size() >= options_.max_queue_depth) {
      shed = true;
    } else {
      conn->inflight.fetch_add(1, std::memory_order_relaxed);
      search_queue_.push_back(std::move(pending));
    }
  }
  if (shed) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, req.type, req.request_id,
                 DeadlineExceededError("load shed: search queue full"),
                 nullptr, /*counted=*/false);
    return;
  }
  search_cv_.NotifyOne();
}

void Server::EnqueueWrite(const std::shared_ptr<Connection>& conn,
                          const Request& req) {
  if (conn->inflight.load(std::memory_order_relaxed) >=
      options_.max_inflight_per_conn) {
    shed_quota_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, req.type, req.request_id,
                 ResourceExhaustedError(
                     "per-connection quota: too many requests in flight"),
                 nullptr, /*counted=*/false);
    return;
  }
  PendingWrite pending;
  pending.conn = conn;
  pending.request_id = req.request_id;
  pending.type = req.type;
  pending.rect = req.rect;
  pending.tid = req.tid;
  pending.session_id = req.session_id;
  pending.seq = req.seq;
  bool shed = false;
  {
    TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
    if (write_queue_.size() >= options_.max_queue_depth) {
      shed = true;
    } else {
      conn->inflight.fetch_add(1, std::memory_order_relaxed);
      write_queue_.push_back(std::move(pending));
    }
  }
  if (shed) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(conn, req.type, req.request_id,
                 ResourceExhaustedError("load shed: write queue full"),
                 nullptr, /*counted=*/false);
    return;
  }
  write_cv_.NotifyOne();
}

// --- Search dispatcher ------------------------------------------------------

void Server::SearchLoop() {
  for (;;) {
    std::vector<PendingSearch> batch;
    {
      TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
      while (search_queue_.empty() &&
             !stopping_.load(std::memory_order_relaxed)) {
        search_cv_.Wait(&queue_mu_);
      }
      if (aborting_.load(std::memory_order_relaxed)) return;  // Crash.
      if (search_queue_.empty()) return;  // Stopping and fully drained.
      const size_t n = std::min(options_.max_batch, search_queue_.size());
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(search_queue_.front()));
        search_queue_.pop_front();
      }
    }
    if (options_.admission_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.admission_delay_us));
    }

    // Admission: answer already-expired requests without touching a page
    // (the deadline machinery would do the same, but this keeps them out
    // of the batch entirely).
    const Clock::time_point now = Clock::now();
    std::vector<PendingSearch> live;
    live.reserve(batch.size());
    for (PendingSearch& p : batch) {
      if (p.deadline.has_value() && *p.deadline <= now) {
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        SendResponse(p.conn, MsgType::kSearch, p.request_id,
                     DeadlineExceededError(
                         "deadline expired before the search was scheduled"));
      } else {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) continue;

    // One read phase for the whole batch. allow_partial is forced on so
    // one quarantined page cannot fail a neighbor's query; each request's
    // own policy is applied to its entry below.
    rtree::SearchOptions so;
    so.allow_partial = true;
    for (const PendingSearch& p : live) {
      if (p.deadline.has_value() &&
          (!so.deadline.has_value() || *p.deadline < *so.deadline)) {
        so.deadline = *p.deadline;
      }
    }
    std::vector<Rect> queries;
    queries.reserve(live.size());
    for (const PendingSearch& p : live) queries.push_back(p.rect);

    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_queries_.fetch_add(live.size(), std::memory_order_relaxed);
    std::vector<core::BatchResult> results;
    const Status batch_status =
        index_->SearchBatch(queries, so, &results, options_.search_threads);
    if (results.size() != live.size()) {
      // The batch never ran (e.g. skeleton finalize failed): answer
      // everyone with the batch status.
      for (const PendingSearch& p : live) {
        SendResponse(p.conn, MsgType::kSearch, p.request_id,
                     batch_status.ok() ? InternalError("batch lost results")
                                       : batch_status);
      }
      continue;
    }

    std::vector<PendingSearch> requeue;
    const Clock::time_point after = Clock::now();
    for (size_t i = 0; i < live.size(); ++i) {
      PendingSearch& p = live[i];
      core::BatchResult& r = results[i];
      if (r.status.ok()) {
        if (r.partial && !p.allow_partial) {
          SendResponse(p.conn, MsgType::kSearch, p.request_id,
                       UnavailableError(
                           std::to_string(r.skipped_subtrees.size()) +
                           " damaged subtree(s) skipped; retry with "
                           "allow_partial for partial results"));
        } else {
          const std::vector<uint8_t> body =
              EncodeSearchBody(r.hits, r.partial, r.nodes_accessed);
          SendResponse(p.conn, MsgType::kSearch, p.request_id, Status::OK(),
                       &body);
        }
        continue;
      }
      const bool own_deadline_expired =
          p.deadline.has_value() && *p.deadline <= after;
      if (r.status.code() == StatusCode::kDeadlineExceeded &&
          own_deadline_expired) {
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        SendResponse(p.conn, MsgType::kSearch, p.request_id, r.status);
        continue;
      }
      if (r.status.code() == StatusCode::kDeadlineExceeded ||
          r.status.code() == StatusCode::kCancelled) {
        // Cut off by a peer's tighter deadline (or a batch abort) before
        // its own budget ran out: retry in the next batch.
        if (++p.retries > options_.max_retries) {
          SendResponse(p.conn, MsgType::kSearch, p.request_id,
                       UnavailableError("batch retries exhausted"));
        } else {
          retries_.fetch_add(1, std::memory_order_relaxed);
          requeue.push_back(std::move(p));
        }
        continue;
      }
      SendResponse(p.conn, MsgType::kSearch, p.request_id, r.status);
    }
    if (!requeue.empty()) {
      {
        TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
        // Front of the queue: they have been waiting longest.
        for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
          search_queue_.push_front(std::move(*it));
        }
      }
      search_cv_.NotifyOne();
    }
  }
}

// --- Write dispatcher -------------------------------------------------------

void Server::WriteLoop() {
  for (;;) {
    std::vector<PendingWrite> work;
    {
      TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
      while (write_queue_.empty() &&
             !stopping_.load(std::memory_order_relaxed)) {
        write_cv_.Wait(&queue_mu_);
      }
      if (aborting_.load(std::memory_order_relaxed)) return;  // Crash.
      if (write_queue_.empty()) return;  // Stopping and fully drained.
      work.reserve(write_queue_.size());
      while (!write_queue_.empty()) {
        work.push_back(std::move(write_queue_.front()));
        write_queue_.pop_front();
      }
    }
    ExecuteWrites(std::move(work));
  }
}

void Server::ExecuteWrites(std::vector<PendingWrite> work) {
  // Arrival order is preserved: consecutive inserts coalesce into runs,
  // applied on the write pool in chunks (commit_every ops per chunk, one
  // checkpoint each);
  // consecutive commits are acknowledged by a single checkpoint.
  //
  // Exactly-once discipline for session-tagged ops (session_id != 0):
  //
  //   * Before executing, the dedup window is consulted; a sequence number
  //     at or below the session's resolved high-water mark is answered
  //     from the cached verdict without touching the index.
  //   * An applied op's OK verdict is recorded *before* the checkpoint
  //     that makes it durable. The window rides inside the checkpoint
  //     (commit-meta hook), so the data and the verdict that acknowledges
  //     it persist atomically — after a crash, a retry the client never
  //     saw acked re-applies (correct: the data was lost too), and a
  //     retry of an acked op replays its ack (correct: the data is there).
  //   * A failed checkpoint downgrades the in-memory verdict to the
  //     commit's error code; the op is applied but volatile. A retry of
  //     that seq does not re-apply — it runs a fresh checkpoint and
  //     upgrades the verdict to OK when one lands.
  //   * Ops that never reached the tree (failed or skipped) are not
  //     recorded at all, so a retry re-executes them.

  // Answers `op` from the dedup window. Returns false if the op is fresh
  // and must be executed.
  auto replay_if_duplicate = [&](const PendingWrite& op) -> bool {
    if (op.session_id == 0) return false;
    const auto hit = dedup_.Check(op.session_id, op.seq);
    if (!hit.has_value()) return false;
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    if (op.seq < hit->seq || hit->code == StatusCode::kOk) {
      // Resolved — either this very seq acked OK, or a newer op from the
      // same session already resolved past it (the client only retries
      // its newest op, so anything older was settled before it moved on).
      SendResponse(op.conn, op.type, op.request_id, Status::OK());
      return true;
    }
    // This seq was applied but its checkpoint failed. Converge instead of
    // replaying the stale error: a fresh checkpoint makes it durable now.
    const Status commit_status = index_->Commit();
    const StatusCode code =
        commit_status.ok() ? StatusCode::kOk : commit_status.code();
    dedup_.Record(op.session_id, op.seq, code);
    SendResponse(op.conn, op.type, op.request_id, commit_status);
    return true;
  };

  std::vector<size_t> run;  // Indexes of the current insert run.
  // Session keys already in `run`: a duplicate must not share a batch
  // with its original (the window only knows resolved ops).
  std::set<std::pair<uint64_t, uint64_t>> pending_keys;

  // Applies one chunk of the insert run and checkpoints it.
  auto flush_chunk = [&](const size_t* idx, size_t n) {
    // Each claimed insert's own status; an insert left empty was never
    // claimed, because the chunk stopped at a neighbor's failure.
    std::vector<std::optional<Status>> outcome(n);
    write_pool_->Run(n, [&](size_t k) {
      const PendingWrite& op = work[idx[k]];
      const Status status = index_->Insert(op.rect, op.tid);
      outcome[k] = status;
      return status.ok();
    });
    // Provisional verdicts first, then the checkpoint: the window blob the
    // commit-meta hook serializes must already acknowledge everything the
    // checkpoint is about to make durable.
    for (size_t k = 0; k < n; ++k) {
      const PendingWrite& op = work[idx[k]];
      const std::optional<Status>& status = outcome[k];
      if (op.session_id != 0 && status.has_value() && status->ok()) {
        dedup_.Record(op.session_id, op.seq, StatusCode::kOk);
      }
    }
    const Status commit_status = index_->Commit();
    for (size_t k = 0; k < n; ++k) {
      const PendingWrite& op = work[idx[k]];
      const std::optional<Status>& status = outcome[k];
      if (!status.has_value()) {
        SendResponse(op.conn, MsgType::kInsert, op.request_id,
                     CancelledError("not applied: batch aborted by a "
                                    "neighbor's failure — safe to retry"));
      } else if (!status->ok()) {
        SendResponse(op.conn, MsgType::kInsert, op.request_id, *status);
      } else if (commit_status.ok()) {
        SendResponse(op.conn, MsgType::kInsert, op.request_id, Status::OK());
      } else {
        if (op.session_id != 0) {
          dedup_.Record(op.session_id, op.seq, commit_status.code());
        }
        SendResponse(op.conn, MsgType::kInsert, op.request_id,
                     Status(commit_status.code(),
                            commit_status.message() +
                                " (insert applied but not yet durable; "
                                "retry to checkpoint it)"));
      }
    }
  };

  auto flush_run = [&] {
    if (run.empty()) return;
    const size_t chunk =
        options_.commit_every > 0 ? options_.commit_every : run.size();
    for (size_t off = 0; off < run.size(); off += chunk) {
      flush_chunk(run.data() + off, std::min(chunk, run.size() - off));
    }
    run.clear();
    pending_keys.clear();
  };

  for (size_t i = 0; i < work.size(); ++i) {
    PendingWrite& op = work[i];
    switch (op.type) {
      case MsgType::kInsert: {
        if (op.session_id != 0) {
          if (pending_keys.count({op.session_id, op.seq}) != 0) flush_run();
          if (replay_if_duplicate(op)) break;
          pending_keys.insert({op.session_id, op.seq});
        }
        run.push_back(i);
        break;
      }
      case MsgType::kDelete: {
        flush_run();
        if (replay_if_duplicate(op)) break;
        const Status status = index_->Delete(op.rect, op.tid);
        if (op.session_id == 0 || !status.ok()) {
          // Failed ops are not recorded: nothing changed, retry re-runs.
          SendResponse(op.conn, MsgType::kDelete, op.request_id, status);
          break;
        }
        dedup_.Record(op.session_id, op.seq, StatusCode::kOk);
        const Status commit_status = index_->Commit();
        if (commit_status.ok()) {
          SendResponse(op.conn, MsgType::kDelete, op.request_id,
                       Status::OK());
        } else {
          dedup_.Record(op.session_id, op.seq, commit_status.code());
          SendResponse(op.conn, MsgType::kDelete, op.request_id,
                       Status(commit_status.code(),
                              commit_status.message() +
                                  " (delete applied but not yet durable; "
                                  "retry to checkpoint it)"));
        }
        break;
      }
      case MsgType::kCommit: {
        flush_run();
        // Gather every immediately-following commit: one checkpoint
        // acknowledges them all.
        size_t last = i;
        while (last + 1 < work.size() &&
               work[last + 1].type == MsgType::kCommit) {
          ++last;
        }
        // Answer duplicates from the window; pre-record the fresh ones as
        // OK so the checkpoint persists its own acknowledgements, rolling
        // back if it fails.
        std::vector<size_t> fresh;
        std::vector<std::optional<DedupWindow::Verdict>> previous;
        for (size_t j = i; j <= last; ++j) {
          if (replay_if_duplicate(work[j])) continue;
          fresh.push_back(j);
          if (work[j].session_id != 0) {
            previous.push_back(dedup_.Record(work[j].session_id,
                                             work[j].seq, StatusCode::kOk));
          } else {
            previous.push_back(std::nullopt);
          }
        }
        if (!fresh.empty()) {
          const Status status = index_->Commit();
          if (!status.ok()) {
            for (size_t k = fresh.size(); k-- > 0;) {
              if (work[fresh[k]].session_id != 0) {
                dedup_.Restore(work[fresh[k]].session_id, previous[k]);
              }
            }
          }
          for (size_t j : fresh) {
            SendResponse(work[j].conn, MsgType::kCommit, work[j].request_id,
                         status);
          }
        }
        i = last;
        break;
      }
      default:
        SendResponse(op.conn, op.type, op.request_id,
                     InternalError("non-write request on the write queue"));
        break;
    }
  }
  flush_run();
}

// --- Background scrub -------------------------------------------------------

void Server::ScrubLoop() {
  for (;;) {
    {
      TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
      const auto wake = Clock::now() + std::chrono::milliseconds(
                                           options_.scrub_interval_ms);
      while (!stopping_.load(std::memory_order_relaxed) &&
             Clock::now() < wake) {
        scrub_cv_.WaitUntil(&queue_mu_, wake);
      }
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
    scrub_running_.store(true, std::memory_order_relaxed);
    storage::ScrubOptions sopts;
    sopts.max_extents_per_second = options_.scrub_extents_per_second;
    sopts.cancel_token = &scrub_cancel_;
    auto report = index_->Scrub(sopts);
    scrub_running_.store(false, std::memory_order_relaxed);
    if (report.ok()) {
      scrubs_completed_.fetch_add(1, std::memory_order_relaxed);
      scrub_defects_.fetch_add(report->defects.size(),
                               std::memory_order_relaxed);
    }
  }
}

// --- Responses --------------------------------------------------------------

void Server::SendResponse(const std::shared_ptr<Connection>& conn,
                          MsgType type, uint64_t request_id,
                          const Status& status,
                          const std::vector<uint8_t>* body, bool counted) {
  if (counted) conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  // A crashing server answers nobody: drop the frame on the floor so the
  // client sees the same silence a dead process would produce.
  if (aborting_.load(std::memory_order_relaxed)) return;
  const std::vector<uint8_t> payload = EncodeResponse(
      type, request_id, status, body != nullptr ? body->data() : nullptr,
      body != nullptr ? body->size() : 0);
  std::vector<uint8_t> frame;
  frame.reserve(4 + payload.size());
  uint8_t len[4];
  storage::EncodeU32(len, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), len, len + 4);
  frame.insert(frame.end(), payload.begin(), payload.end());

  TrackedMutexLock lock(&conn->write_mu, LockClass::kServerConn);
  if (conn->closed) return;
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = transport::Write(conn->fd, frame.data() + sent,
                                       frame.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (poll(&pfd, 1, kWriteStallTimeoutMs) > 0) continue;
    }
    // Stalled or dead peer: stop writing and let the I/O thread reap the
    // connection — shutdown() wakes its epoll with EPOLLHUP/EPOLLIN on
    // the still-registered fd. Never close() here: the fd must stay
    // allocated until the I/O thread erases the Connection, or a new
    // accept() could reuse the number while the stale entry still owns
    // its connections_ slot.
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    conn->closed = true;
    shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  responses_.fetch_add(1, std::memory_order_relaxed);
}

// --- Stats / health ---------------------------------------------------------

ServerStatsSnapshot Server::stats_snapshot() const {
  ServerStatsSnapshot s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.deletes = deletes_.load(std::memory_order_relaxed);
  s.commits = commits_.load(std::memory_order_relaxed);
  s.info_requests = info_requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.send_failures = send_failures_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.scrubs_completed = scrubs_completed_.load(std::memory_order_relaxed);
  s.scrub_defects = scrub_defects_.load(std::memory_order_relaxed);
  s.scrub_running = scrub_running_.load(std::memory_order_relaxed);
  s.accept_overload = accept_overload_.load(std::memory_order_relaxed);
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.hellos = hellos_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::BuildStatsJson() {
  const ServerStatsSnapshot s = stats_snapshot();
  const storage::StorageStats& st = index_->storage_stats();
  const rtree::LatchStats latch = index_->tree()->latch_stats();
  char buf[3072];
  std::snprintf(
      buf, sizeof(buf),
      "{\"server\": {\"connections_accepted\": %llu, "
      "\"connections_active\": %llu, \"searches\": %llu, "
      "\"inserts\": %llu, \"deletes\": %llu, \"commits\": %llu, "
      "\"responses\": %llu, \"protocol_errors\": %llu, "
      "\"send_failures\": %llu, \"shed_queue_full\": %llu, "
      "\"shed_quota\": %llu, \"deadline_expired\": %llu, "
      "\"batches\": %llu, \"batch_queries\": %llu, \"retries\": %llu, "
      "\"accept_overload\": %llu, \"idle_reaped\": %llu, "
      "\"dedup_hits\": %llu, \"hellos\": %llu}, "
      "\"index\": {\"records\": %llu, \"height\": %d, "
      "\"index_bytes\": %llu}, "
      "\"storage\": {\"logical_reads\": %llu, \"cache_hits\": %llu, "
      "\"physical_reads\": %llu, \"physical_writes\": %llu, "
      "\"checkpoints\": %llu, \"commit_requests\": %llu, "
      "\"commit_batches\": %llu, \"degraded\": %llu, "
      "\"pages_quarantined\": %llu, \"quarantine_hits\": %llu}, "
      "\"latch\": {\"gate_read_enters\": %llu, \"gate_write_enters\": %llu, "
      "\"gate_read_blocked\": %llu, \"gate_write_blocked\": %llu, "
      "\"gate_read_wait_us\": %llu, \"gate_write_wait_us\": %llu, "
      "\"node_latch_acquires\": %llu, \"node_latch_blocked\": %llu, "
      "\"node_latch_wait_us\": %llu}}",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_active),
      static_cast<unsigned long long>(s.searches),
      static_cast<unsigned long long>(s.inserts),
      static_cast<unsigned long long>(s.deletes),
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.responses),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.send_failures),
      static_cast<unsigned long long>(s.shed_queue_full),
      static_cast<unsigned long long>(s.shed_quota),
      static_cast<unsigned long long>(s.deadline_expired),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.batch_queries),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.accept_overload),
      static_cast<unsigned long long>(s.idle_reaped),
      static_cast<unsigned long long>(s.dedup_hits),
      static_cast<unsigned long long>(s.hellos),
      static_cast<unsigned long long>(index_->size()), index_->height(),
      static_cast<unsigned long long>(index_->index_bytes()),
      static_cast<unsigned long long>(st.logical_reads),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.physical_reads),
      static_cast<unsigned long long>(st.physical_writes),
      static_cast<unsigned long long>(st.checkpoints),
      static_cast<unsigned long long>(st.commit_requests),
      static_cast<unsigned long long>(st.commit_batches),
      static_cast<unsigned long long>(st.degraded),
      static_cast<unsigned long long>(st.pages_quarantined),
      static_cast<unsigned long long>(st.quarantine_hits),
      static_cast<unsigned long long>(latch.gate_enters[0]),
      static_cast<unsigned long long>(latch.gate_enters[1]),
      static_cast<unsigned long long>(latch.gate_blocked[0]),
      static_cast<unsigned long long>(latch.gate_blocked[1]),
      static_cast<unsigned long long>(latch.gate_wait_us[0]),
      static_cast<unsigned long long>(latch.gate_wait_us[1]),
      static_cast<unsigned long long>(latch.latch_acquires),
      static_cast<unsigned long long>(latch.latch_blocked),
      static_cast<unsigned long long>(latch.latch_wait_us));
  return buf;
}

std::string Server::BuildHealthJson() {
  const ServerStatsSnapshot s = stats_snapshot();
  const storage::StorageStats& st = index_->storage_stats();
  const size_t quarantined = index_->pager()->quarantined_count();
  size_t search_depth = 0;
  size_t write_depth = 0;
  {
    TrackedMutexLock lock(&queue_mu_, LockClass::kServerQueue);
    search_depth = search_queue_.size();
    write_depth = write_queue_.size();
  }
  const bool degraded = st.degraded != 0;
  // Degraded (read-only after a hard write error) and quarantine (damaged
  // pages skipped by partial searches) surface here so clients can act
  // before requests start failing.
  const char* status = degraded          ? "degraded"
                       : quarantined > 0 ? "quarantined"
                                         : "ok";
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"status\": \"%s\", \"degraded\": %s, "
      "\"quarantined_pages\": %zu, "
      "\"scrub\": {\"running\": %s, \"completed\": %llu, "
      "\"defects_found\": %llu, \"interval_ms\": %llu}, "
      "\"search_queue_depth\": %zu, \"write_queue_depth\": %zu, "
      "\"connections_active\": %llu, \"records\": %llu}",
      status, degraded ? "true" : "false", quarantined,
      s.scrub_running ? "true" : "false",
      static_cast<unsigned long long>(s.scrubs_completed),
      static_cast<unsigned long long>(s.scrub_defects),
      static_cast<unsigned long long>(options_.scrub_interval_ms),
      search_depth, write_depth,
      static_cast<unsigned long long>(s.connections_active),
      static_cast<unsigned long long>(index_->size()));
  return buf;
}

}  // namespace segidx::server
