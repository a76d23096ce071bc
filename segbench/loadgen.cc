#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/random.h"
#include "server/protocol.h"
#include "storage/coding.h"
#include "trace.h"
#include "workloads.h"

namespace segbench {

using segidx::Status;
using segidx::server::MsgType;

namespace {
constexpr double kHealthEverySeconds = 0.02;
constexpr double kDrainSeconds = 5;
}  // namespace

struct OpenLoopGenerator::Connection {
  int fd = -1;
  bool dead = false;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  std::vector<uint8_t> in;

  Connection() = default;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Queue(const std::vector<uint8_t>& payload) {
    uint8_t len[4];
    segidx::storage::EncodeU32(len, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), len, len + 4);
    out.insert(out.end(), payload.begin(), payload.end());
  }

  // Writes what the socket takes without blocking.
  void Flush() {
    while (!dead && out_pos < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_pos += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        dead = true;
      }
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }
  }

  // Reads what the socket has without blocking.
  void Fill() {
    uint8_t buf[1 << 16];
    while (!dead) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in.insert(in.end(), buf, buf + n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        dead = true;  // EOF or a hard error.
      }
    }
  }
};

std::vector<PlannedRequest> PlanPoisson(
    uint64_t seed, double rate_per_s, double seconds, double insert_share,
    double search_area_share, double domain,
    const std::vector<segidx::Rect>& records, uint64_t* next_record) {
  segidx::Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
  const double side = std::sqrt(search_area_share) * domain;
  std::vector<PlannedRequest> plan;
  plan.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  for (double t = rng.Exponential(1.0 / rate_per_s); t < seconds;
       t += rng.Exponential(1.0 / rate_per_s)) {
    PlannedRequest req;
    req.due_s = t;
    req.insert =
        rng.NextDouble() < insert_share && *next_record < records.size();
    if (req.insert) {
      req.tid = *next_record;
      req.rect = records[(*next_record)++];
    } else {
      const double x = rng.Uniform(0, domain - side);
      const double y = rng.Uniform(0, domain - side);
      req.rect = segidx::Rect(x, x + side, y, y + side);
    }
    plan.push_back(req);
  }
  return plan;
}

segidx::Result<std::unique_ptr<OpenLoopGenerator>> OpenLoopGenerator::Connect(
    uint16_t port, int connections) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) {
      return segidx::IoError(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return segidx::IoError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conns.push_back(std::move(conn));
  }
  return std::unique_ptr<OpenLoopGenerator>(
      new OpenLoopGenerator(std::move(conns)));
}

OpenLoopGenerator::OpenLoopGenerator(
    std::vector<std::unique_ptr<Connection>> conns)
    : conns_(std::move(conns)) {}

OpenLoopGenerator::~OpenLoopGenerator() = default;

Status OpenLoopGenerator::Run(const std::vector<PlannedRequest>& plan,
                              bool traced_run,
                              std::vector<RequestOutcome>* outcomes,
                              Samples* health_rtt_us) {
  constexpr size_t kHealth = ~size_t{0};
  struct Pending {
    size_t index;  // Into plan, or kHealth.
    Clock::time_point sent;
  };
  std::unordered_map<uint64_t, Pending> pending;
  outcomes->assign(plan.size(), RequestOutcome());
  // Wake for a due request within microseconds instead of the default 50 us
  // timer slack, which every request's latency would carry. Server threads
  // started earlier keep their own slack. (A spinning generator needs no
  // wake-ups at all, but it burns a core the server's threads compete for;
  // on a shared 4-vCPU VM their latencies then spread several times wider.)
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const Clock::time_point start = Clock::now();
  auto due_at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  auto slice_traced = [&](double offset_s) {
    return SliceTraced(traced_run,
                       static_cast<uint64_t>(offset_s / kSliceSeconds));
  };
  size_t next = 0;
  size_t round_robin = 0;
  double next_health = 0;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> fds(conns_.size());

  while (true) {
    Clock::time_point now = Clock::now();
    const double t = SecondsBetween(start, now);
    if (traced_run) trace::SetEnabled(next < plan.size() && slice_traced(t));

    // Send everything that is due.
    for (; next < plan.size() && plan[next].due_s <= t; ++next) {
      Connection* conn = nullptr;
      for (size_t k = 0; k < conns_.size() && conn == nullptr; ++k) {
        Connection* c = conns_[round_robin++ % conns_.size()].get();
        if (!c->dead) conn = c;
      }
      if (conn == nullptr) continue;  // Every connection lost: unanswered.
      const PlannedRequest& req = plan[next];
      const uint64_t id = next_request_id_++;
      conn->Queue(req.insert
                      ? segidx::server::EncodeWriteRequest(MsgType::kInsert,
                                                           id, req.rect,
                                                           req.tid)
                      : segidx::server::EncodeSearchRequest(
                            id, req.rect, /*budget_us=*/0,
                            /*allow_partial=*/false));
      pending[id] = Pending{next, now};
      (*outcomes)[next].late_us = MicrosBetween(due_at(req.due_s), now);
    }
    if (next < plan.size() && t >= next_health && !conns_[0]->dead) {
      const uint64_t id = next_request_id_++;
      conns_[0]->Queue(
          segidx::server::EncodeSimpleRequest(MsgType::kHealth, id));
      pending[id] = Pending{kHealth, now};
      next_health += kHealthEverySeconds;
    }
    for (auto& c : conns_) c->Flush();

    if (next == plan.size()) {
      if (pending.empty()) break;
      if (drain_deadline == Clock::time_point{}) {
        drain_deadline = due_at(t + kDrainSeconds);
      }
      if (now >= drain_deadline) break;
    }

    // Sleep until the next due request, an answer, or a slice edge.
    double wait_s = 0.01;
    if (next < plan.size()) {
      wait_s = std::min(plan[next].due_s, next_health) - t;
    }
    wait_s = std::clamp(wait_s, 0.0, 0.01);
    size_t nfds = 0;
    for (auto& c : conns_) {
      if (c->dead) continue;
      fds[nfds].fd = c->fd;
      fds[nfds].events = static_cast<short>(
          POLLIN | (c->out_pos < c->out.size() ? POLLOUT : 0));
      fds[nfds].revents = 0;
      ++nfds;
    }
    if (nfds == 0 && next == plan.size()) break;
    const auto wait_ns = static_cast<long>(wait_s * 1e9);
    timespec ts{wait_ns / 1000000000L, wait_ns % 1000000000L};
    if (::ppoll(fds.data(), nfds, &ts, nullptr) < 0 && errno != EINTR) {
      return segidx::IoError(std::string("ppoll: ") + std::strerror(errno));
    }

    // Match every complete response frame.
    for (auto& c : conns_) {
      if (c->dead) continue;
      c->Fill();
      now = Clock::now();
      size_t pos = 0;
      while (c->in.size() - pos >= 4) {
        const uint32_t len = segidx::storage::DecodeU32(c->in.data() + pos);
        if (len > segidx::server::kMaxFrameBytes) {
          return segidx::IoError("oversized response frame");
        }
        if (c->in.size() - pos - 4 < len) break;
        segidx::server::Response resp;
        if (!segidx::server::DecodeResponse(c->in.data() + pos + 4, len,
                                            &resp)) {
          return segidx::IoError("malformed response frame");
        }
        pos += 4 + len;
        const auto it = pending.find(resp.request_id);
        if (it == pending.end()) {
          return segidx::IoError("response to an unknown request id");
        }
        const Pending p = it->second;
        pending.erase(it);
        if (p.index == kHealth) {
          health_rtt_us->Add(MicrosBetween(p.sent, now));
          continue;
        }
        const PlannedRequest& req = plan[p.index];
        RequestOutcome& out = (*outcomes)[p.index];
        out.answered = true;
        out.ok = resp.code == segidx::StatusCode::kOk;
        out.latency_us = MicrosBetween(due_at(req.due_s), now);
        if (out.ok && !req.insert) {
          segidx::server::SearchReply reply;
          if (!segidx::server::DecodeSearchBody(resp.body, &reply)) {
            return segidx::IoError("malformed search response body");
          }
        }
        if (slice_traced(req.due_s)) {
          trace::RecordRoot("server.request", p.sent, now);
        }
      }
      c->in.erase(c->in.begin(), c->in.begin() + static_cast<long>(pos));
    }
  }
  trace::SetEnabled(false);
  return Status::OK();
}

}  // namespace segbench
