// Open-loop load generator for the serving workload.
//
// One thread drives every connection with non-blocking sockets, built on
// the server/protocol.h encoders and decoders (server::Client blocks on
// each round trip and is not thread-safe, so it cannot keep a schedule).// Requests go out when they are due, whatever the state of earlier ones;
// responses are matched by request_id. Each request's latency is measured
// from its due time, so a stall is charged to every request it delays, and
// the generator records how late it sent each one.

#ifndef SEGBENCH_LOADGEN_H_
#define SEGBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/types.h"
#include "report.h"

namespace segbench {

struct PlannedRequest {
  double due_s = 0;  // Offset from the start of the schedule.
  bool insert = false;
  segidx::Rect rect;
  segidx::TupleId tid = 0;  // Inserts only.
};

// Poisson arrivals at `rate_per_s` for `seconds`; `insert_share` of them
// are inserts taking records from `records` in order (starting at
// *next_record, advanced), the rest searches for a square covering
// `search_area_share` of the [0, domain]^2 space.
std::vector<PlannedRequest> PlanPoisson(
    uint64_t seed, double rate_per_s, double seconds, double insert_share,
    double search_area_share, double domain,
    const std::vector<segidx::Rect>& records, uint64_t* next_record);

struct RequestOutcome {
  bool answered = false;
  bool ok = false;
  double latency_us = 0;  // Due time to response.
  double late_us = 0;     // Due time to send.
};

class OpenLoopGenerator {
 public:
  // Opens `connections` loopback connections to `port`.
  static segidx::Result<std::unique_ptr<OpenLoopGenerator>> Connect(
      uint16_t port, int connections);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  // Runs `plan` from now, round-robin over the connections, with a Health
  // probe (answered inline by the server's I/O thread) on the first
  // connection every 20 ms. outcomes[i] describes plan[i]; health round
  // trips go to *health_rtt_us. After the last request it waits at most
  // 5 s for answers. With `traced_run`, span recording follows the
  // kSliceSeconds slices (odd slices traced) and each request due in a
  // traced slice is recorded as a server.request span. Fails only on a
  // local error; refused, failed or unanswered requests are reported in
  // their outcomes.
  segidx::Status Run(const std::vector<PlannedRequest>& plan, bool traced_run,
                     std::vector<RequestOutcome>* outcomes,
                     Samples* health_rtt_us);

 private:
  struct Connection;
  explicit OpenLoopGenerator(std::vector<std::unique_ptr<Connection>> conns);

  std::vector<std::unique_ptr<Connection>> conns_;
  uint64_t next_request_id_ = 1;
};

}  // namespace segbench

#endif  // SEGBENCH_LOADGEN_H_
