// serve_mixed: open-loop traffic against an in-process segidxd.
//
// A server::Server on loopback (2 search threads, 1 write thread) serves an
// in-memory R-Tree bulk-loaded with 50 K I1 records. The open-loop
// generator offers Poisson arrivals at kRate over 2 connections — about 30%
// of the rate a 2-connection closed loop reaches; the write path, where
// nearly every insert costs a checkpoint, runs far busier — with 80% square
// searches covering 10^-3 of the domain and 20% inserts. This is the only
// workload that runs the wire path, admission control, search coalescing,
// the write pool, the phase gate under contention and the per-segment
// checkpoint. The counter window is the measured schedule, between two
// quiescent points.

#include <sched.h>

#include <memory>
#include <vector>

#include "counters.h"
#include "counting_device.h"
#include "loadgen.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/block_device.h"
#include "trace.h"
#include "workload/datasets.h"
#include "workloads.h"

namespace segbench {
namespace {

using segidx::Rect;
using segidx::Status;
using segidx::core::IndexKind;
using segidx::core::IntervalIndex;

// Set-ups per run (setup_s is their median); each takes milliseconds,
// so more of them steady the median.
constexpr int kSetupRepeats = 9;
constexpr uint64_t kPreload = 50000;
constexpr double kRate = 2000;
constexpr int kConnections = 2;
constexpr double kInsertShare = 0.2;
constexpr double kSearchAreaShare = 1e-3;
constexpr double kWarmupSeconds = 1.0;
// A run whose p99 send lateness exceeds this measured a generator that fell
// behind its schedule, not the server, and is void. On a 4-vCPU VM the p99
// reads 0.3-2 ms, and up to 8 ms while the host steals CPU time from the
// VM; a generator that cannot keep its rate falls further behind with every
// request, far past this.
constexpr double kMaxLateP99Us = 20000;
constexpr int kVerifyQueries = 64;

// Declaration order matters: the server uses the index, which writes to
// the device counters, until each is destroyed.
struct Served {
  std::unique_ptr<DeviceCounters> device;
  std::unique_ptr<IntervalIndex> index;
  std::unique_ptr<segidx::server::Server> server;

  void Reset() {
    server.reset();  // Stops it.
    index.reset();
    device.reset();
  }
};

// Confines the calling thread, and every thread it starts afterwards, to
// the first kCpus CPUs it may run on. The server and the generator need
// about half a CPU; spread over four vCPUs, nearly every hand-off between
// their threads woke an idle vCPU, and on a shared VM each such wake waits
// on the host, so the latency medians followed the host's CPU steal.
void LimitCpus() {
  constexpr int kCpus = 2;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(use), &use);
}

// An empty device image with room to grow. Every checkpoint appends a
// journal run, and a memory device that has to reallocate copies its whole
// image under its lock, stalling the server for milliseconds — a cost a
// file device does not have. Reserved address space is not resident until
// written.
std::vector<uint8_t> ReservedImage() {
  std::vector<uint8_t> image;
  image.reserve(size_t{1} << 30);
  return image;
}

Status StartServer(const std::vector<Rect>& data, Served* out) {
  std::vector<std::pair<Rect, segidx::TupleId>> preload;
  preload.reserve(kPreload);
  for (uint64_t i = 0; i < kPreload; ++i) preload.emplace_back(data[i], i);

  out->device = std::make_unique<DeviceCounters>();
  SEGIDX_ASSIGN_OR_RETURN(
      out->index,
      IntervalIndex::CreateWithDevice(
          IndexKind::kRTree,
          std::make_unique<CountingDevice>(
              std::make_unique<segidx::storage::MemoryBlockDevice>(
                  ReservedImage()),
              out->device.get()),
          segidx::core::IndexOptions()));
  {
    trace::Span span("core.BulkLoad");
    SEGIDX_RETURN_IF_ERROR(out->index->BulkLoad(std::move(preload)));
  }
  segidx::server::ServerOptions options;
  options.search_threads = 2;
  options.write_threads = 1;
  out->server =
      std::make_unique<segidx::server::Server>(out->index.get(), options);
  return out->server->Start();
}

// Counter snapshot at a quiescent point, including the server's stats
// document fetched over the wire.
segidx::Result<CounterSnapshot> Snapshot(Served* served,
                                         segidx::server::Client* client) {
  SEGIDX_ASSIGN_OR_RETURN(std::string json, client->Stats());
  return TakeSnapshot(served->index.get(), *served->device, json);
}

}  // namespace

Status RunServeMixed(const RunConfig& config, RunResult* result) {
  LimitCpus();
  const double schedule_s = kWarmupSeconds + config.seconds;
  segidx::workload::DatasetSpec spec;
  spec.kind = segidx::workload::DatasetKind::kI1;
  spec.count = kPreload +
               static_cast<uint64_t>(kRate * kInsertShare * schedule_s * 2) +
               1000;
  spec.seed = config.seed;
  const std::vector<Rect> data = segidx::workload::GenerateDataset(spec);
  const std::vector<Rect> verify = segidx::workload::GenerateQueries(
      1.0, kSearchAreaShare * 1e10, kVerifyQueries, config.seed * 31 + 5);
  uint64_t next_record = kPreload;
  const std::vector<PlannedRequest> warmup = PlanPoisson(
      config.seed, kRate, kWarmupSeconds, kInsertShare, kSearchAreaShare,
      segidx::workload::kDomainHi, data, &next_record);
  const std::vector<PlannedRequest> measured = PlanPoisson(
      config.seed + 1, kRate, config.seconds, kInsertShare, kSearchAreaShare,
      segidx::workload::kDomainHi, data, &next_record);
  const double rss_base_mb = RssMb();

  // Set-up: bulk load and server start, repeated; the last one is kept.
  EndToEndInputs e2e;
  LayerInputs layers;
  Served served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served.Reset();
    trace::SetEnabled(config.trace && rep + 1 == kSetupRepeats);
    const Clock::time_point t0 = Clock::now();
    SEGIDX_RETURN_IF_ERROR(StartServer(data, &served));
    e2e.setup_s.Add(SecondsBetween(t0, Clock::now()));
    trace::SetEnabled(false);
  }
  // Stop the server on every exit path before the index goes away.
  struct StopOnExit {
    segidx::server::Server* server;
    ~StopOnExit() { server->Stop(); }
  } stop_on_exit{served.server.get()};

  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<segidx::server::Client> stats_client,
      segidx::server::Client::Connect("127.0.0.1", served.server->port()));
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<OpenLoopGenerator> generator,
      OpenLoopGenerator::Connect(served.server->port(), kConnections));

  // Warm-up schedule, then the measured one; each drains before the next
  // step, so the counter window edges are quiescent.
  std::vector<RequestOutcome> warm_out, out;
  Samples warm_health;
  SEGIDX_RETURN_IF_ERROR(
      generator->Run(warmup, /*trace=*/false, &warm_out, &warm_health));
  SEGIDX_ASSIGN_OR_RETURN(CounterSnapshot before,
                          Snapshot(&served, stats_client.get()));
  SEGIDX_RETURN_IF_ERROR(
      generator->Run(measured, config.trace, &out, &layers.health_rtt_us));
  SEGIDX_ASSIGN_OR_RETURN(CounterSnapshot after,
                          Snapshot(&served, stats_client.get()));
  layers.delta = after.Minus(before);
  e2e.rss_mb = PeakRssMb() - rss_base_mb;

  // Latency and failure accounting, untraced slices only for timings.
  segidx::oracle::NaiveOracle oracle;
  for (uint64_t i = 0; i < kPreload; ++i) oracle.Insert(data[i], i);
  uint64_t acked_inserts = 0;
  uint64_t unanswered_inserts = 0;
  auto account_inserts = [&](const std::vector<PlannedRequest>& plan,
                             const std::vector<RequestOutcome>& outcomes) {
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].insert) continue;
      if (outcomes[i].ok) {
        oracle.Insert(plan[i].rect, plan[i].tid);
        ++acked_inserts;
      } else if (!outcomes[i].answered) {
        ++unanswered_inserts;
      }
    }
  };
  account_inserts(warmup, warm_out);
  account_inserts(measured, out);
  for (size_t i = 0; i < measured.size(); ++i) {
    const RequestOutcome& o = out[i];
    layers.late_us.Add(o.late_us);
    if (!o.ok) {
      ++result->failed;
      continue;
    }
    const bool traced = SliceTraced(
        config.trace, static_cast<uint64_t>(measured[i].due_s / kSliceSeconds));
    if (measured[i].insert) {
      if (!traced) e2e.insert_us.Add(o.latency_us);
    } else if (traced) {
      layers.traced_search_us.Add(o.latency_us);
    } else {
      e2e.search_us.Add(o.latency_us);
    }
  }
  result->attempted = measured.size();
  const double late_p99_us = layers.late_us.Percentile(0.99);
  Note("generator lateness p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us",
       layers.late_us.Percentile(0.5), layers.late_us.Percentile(0.9),
       late_p99_us, layers.late_us.Percentile(1.0));
  if (late_p99_us > kMaxLateP99Us) {
    return segidx::UnavailableError(
        "the generator fell behind its schedule (p99 send lateness " +
        std::to_string(late_p99_us) + " us); the run is void");
  }
  // Fixed by the offered schedule while every request succeeds.
  e2e.search_qps =
      static_cast<double>(e2e.search_us.count()) / UntracedSeconds(config);
  e2e.insert_per_s =
      static_cast<double>(e2e.insert_us.count()) / UntracedSeconds(config);

  // Correctness gate: every acked insert, and nothing else, is in the
  // index, and sampled queries match the oracle over that same set.
  served.server->Stop();
  stats_client.reset();
  generator.reset();
  if (unanswered_inserts != 0) {
    return segidx::InternalError(std::to_string(unanswered_inserts) +
                                 " inserts were never answered");
  }
  if (served.index->size() != kPreload + acked_inserts) {
    return segidx::InternalError(
        "index holds " + std::to_string(served.index->size()) +
        " records, expected " + std::to_string(kPreload + acked_inserts));
  }
  SEGIDX_RETURN_IF_ERROR(CheckAgainstOracle(served.index.get(), oracle, verify,
                                            &layers.distinct_ratio));
  e2e.bytes_per_record = static_cast<double>(served.index->index_bytes()) /
                         static_cast<double>(served.index->size());

  FinishRun(e2e, layers, result);
  return Status::OK();
}

}  // namespace segbench
