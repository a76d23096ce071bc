#include "torture/recovery_torture.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <utility>

#include "storage/block_device.h"
#include "storage/fault_injection.h"

namespace segidx::torture {

namespace {

using core::IntervalIndex;
using storage::FaultInjectingBlockDevice;
using storage::MemoryBlockDevice;

// One baseline checkpoint: the epoch it produced, the write+sync op count
// when it finished, and how many records it made durable.
struct OracleEntry {
  uint64_t epoch = 0;
  uint64_t ops_done = 0;
  uint64_t records = 0;
};

std::vector<std::pair<Rect, TupleId>> MakeRecords(uint64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 1000.0);
  std::uniform_real_distribution<double> length(0.5, 40.0);
  std::uniform_real_distribution<double> ypos(0.0, 1000.0);
  std::vector<std::pair<Rect, TupleId>> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double s = start(rng);
    records.emplace_back(
        Rect(Interval(s, s + length(rng)), Interval::Point(ypos(rng))),
        static_cast<TupleId>(i + 1));
  }
  return records;
}

// Runs create → initial flush → inserts with periodic checkpoints. With
// `oracle` set (baseline), statuses are checked and every checkpoint is
// recorded; without it (crash runs), errors past the fault are expected and
// ignored — the device image, not the in-memory index, is the output.
Status RunWorkload(IntervalIndex* index, FaultInjectingBlockDevice* device,
                   const std::vector<std::pair<Rect, TupleId>>& records,
                   uint64_t checkpoint_every,
                   std::vector<OracleEntry>* oracle) {
  Status status = index->Commit();
  if (oracle != nullptr) {
    SEGIDX_RETURN_IF_ERROR(status);
    oracle->push_back({index->pager()->epoch(), device->counters().ops(), 0});
  }
  for (uint64_t i = 0; i < records.size(); ++i) {
    status = index->Insert(records[i].first, records[i].second);
    if (oracle != nullptr) SEGIDX_RETURN_IF_ERROR(status);
    const bool at_checkpoint = (i + 1) % checkpoint_every == 0;
    if (at_checkpoint || i + 1 == records.size()) {
      status = index->Commit();
      if (oracle != nullptr) {
        SEGIDX_RETURN_IF_ERROR(status);
        oracle->push_back(
            {index->pager()->epoch(), device->counters().ops(), i + 1});
      }
    }
  }
  return Status::OK();
}

std::string Describe(uint64_t fault_op, const std::string& what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "fault op %llu: ",
                static_cast<unsigned long long>(fault_op));
  return buf + what;
}

}  // namespace

Result<TortureReport> RunRecoveryTorture(const TortureOptions& options) {
  if (options.records == 0 || options.checkpoint_every == 0) {
    return InvalidArgumentError(
        "torture workload needs records > 0 and checkpoint_every > 0");
  }
  const std::vector<std::pair<Rect, TupleId>> records =
      MakeRecords(options.records, options.seed);

  // --- baseline pass: build the oracle ------------------------------------
  TortureReport report;
  std::vector<OracleEntry> oracle;
  {
    auto device = std::make_unique<FaultInjectingBlockDevice>(
        std::make_unique<MemoryBlockDevice>());
    FaultInjectingBlockDevice* dev = device.get();
    SEGIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<IntervalIndex> index,
        IntervalIndex::CreateWithDevice(options.kind, std::move(device),
                                        options.index));
    SEGIDX_RETURN_IF_ERROR(RunWorkload(index.get(), dev, records,
                                       options.checkpoint_every, &oracle));
    report.total_ops = dev->counters().ops();
    SEGIDX_RETURN_IF_ERROR(index->Close());
  }
  report.checkpoints = oracle.size();
  report.first_fault_op = oracle.front().ops_done;
  if (report.first_fault_op >= report.total_ops) {
    return InternalError("workload produced no ops after the initial flush");
  }

  // --- pick fault points ---------------------------------------------------
  std::vector<uint64_t> points;
  const uint64_t span = report.total_ops - report.first_fault_op;
  if (options.max_fault_points == 0 || options.max_fault_points >= span) {
    points.reserve(span);
    for (uint64_t k = report.first_fault_op; k < report.total_ops; ++k) {
      points.push_back(k);
    }
  } else {
    points.reserve(options.max_fault_points);
    for (uint64_t i = 0; i < options.max_fault_points; ++i) {
      points.push_back(report.first_fault_op + i * span /
                       options.max_fault_points);
    }
  }

  // --- crash sweep ---------------------------------------------------------
  constexpr size_t kMaxFailures = 25;
  const Rect everything(Interval(-1e12, 1e12), Interval(-1e12, 1e12));
  for (size_t pi = 0; pi < points.size(); ++pi) {
    const uint64_t k = points[pi];
    if (options.log_progress && points.size() >= 10 &&
        pi % (points.size() / 10) == 0) {
      std::fprintf(stderr, "torture: fault point %zu/%zu (op %llu)\n", pi,
                   points.size(), static_cast<unsigned long long>(k));
    }

    // Re-run the workload and kill the device at op k.
    std::vector<uint8_t> image;
    {
      auto device = std::make_unique<FaultInjectingBlockDevice>(
          std::make_unique<MemoryBlockDevice>());
      FaultInjectingBlockDevice* dev = device.get();
      dev->CrashAtOp(k, options.tear_bytes);
      auto created = IntervalIndex::CreateWithDevice(
          options.kind, std::move(device), options.index);
      if (!created.ok()) {
        // k lies after the initial flush, so creation must not see the fault.
        report.failures.push_back(
            Describe(k, "create failed: " + created.status().ToString()));
        continue;
      }
      std::unique_ptr<IntervalIndex> index = std::move(created).value();
      // Past the fault every op fails; the workload soldiers on regardless,
      // like a process that has not yet noticed its disk died.
      RunWorkload(index.get(), dev, records, options.checkpoint_every,
                  nullptr);
      (void)index->Close();
      if (!dev->crashed()) {
        report.failures.push_back(Describe(k, "fault never fired"));
        continue;
      }
      image = static_cast<MemoryBlockDevice*>(dev->inner())->Snapshot();
    }

    // Recover from the image a fresh process would find.
    auto reopened = IntervalIndex::OpenFromDevice(
        std::make_unique<MemoryBlockDevice>(std::move(image)), options.index);
    if (!reopened.ok()) {
      report.failures.push_back(
          Describe(k, "recovery failed: " + reopened.status().ToString()));
      if (report.failures.size() >= kMaxFailures) break;
      continue;
    }
    std::unique_ptr<IntervalIndex> index = std::move(reopened).value();
    const storage::RecoveryReport& rec = index->pager()->recovery_report();
    if (rec.fell_back) ++report.fallbacks;
    if (rec.journal_replayed) ++report.journal_replays;

    // The recovered epoch must be one the baseline checkpointed, and no
    // older than the newest checkpoint that finished before the fault.
    const OracleEntry* entry = nullptr;
    uint64_t min_epoch = 0;
    for (const OracleEntry& e : oracle) {
      if (e.epoch == rec.epoch) entry = &e;
      if (e.ops_done <= k) min_epoch = std::max(min_epoch, e.epoch);
    }
    if (entry == nullptr) {
      report.failures.push_back(Describe(
          k, "recovered epoch " + std::to_string(rec.epoch) +
                 " was never made durable by the baseline"));
    } else if (rec.epoch < min_epoch) {
      report.failures.push_back(Describe(
          k, "recovered epoch " + std::to_string(rec.epoch) +
                 " lost durable checkpoint " + std::to_string(min_epoch)));
    } else {
      Status check = index->CheckInvariants();
      if (!check.ok()) {
        report.failures.push_back(
            Describe(k, "structure check failed: " + check.ToString()));
      } else {
        std::vector<TupleId> tids;
        Status search = index->SearchTuples(everything, &tids);
        if (!search.ok()) {
          report.failures.push_back(
              Describe(k, "search failed: " + search.ToString()));
        } else {
          std::sort(tids.begin(), tids.end());
          bool match = tids.size() == entry->records;
          for (size_t i = 0; match && i < tids.size(); ++i) {
            match = tids[i] == static_cast<TupleId>(i + 1);
          }
          if (!match) {
            report.failures.push_back(Describe(
                k, "recovered record set diverges from checkpoint " +
                       std::to_string(rec.epoch) + ": " +
                       std::to_string(tids.size()) + " records vs " +
                       std::to_string(entry->records)));
          }
        }
      }
    }
    ++report.fault_points_run;
    if (report.failures.size() >= kMaxFailures) break;
  }
  return report;
}

}  // namespace segidx::torture
