// disk_ingest: a file-backed SR-Tree larger than its buffer pool.
//
// 100 K M1 records are preloaded and committed; then one thread streams
// further M1 inserts, runs one search (QAR 1, area 10^6) per 4 inserts and
// calls Commit() after every 256 inserts — the flush policy, fixed on both
// sides of any comparison. The pool is 4 MB against an index of ~90 MB, so
// the stream exercises evictions, spills, miss reads, SR-Tree cutting,
// demotion and promotion, and the journaled checkpoint with real fsyncs.
// The counter window is the first kWindowInserts streamed inserts and ends
// just after a commit, which makes every storage and srtree count, and
// bytes_per_record, exact for a seed.

#include <deque>
#include <memory>
#include <vector>

#include "counters.h"
#include "counting_device.h"
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

// Set-ups per run (setup_s is their median); each is a full preload.
constexpr int kSetupRepeats = 3;
constexpr uint64_t kPreload = 100000;
constexpr uint64_t kCommitEvery = 256;
constexpr uint64_t kSearchEvery = 4;
constexpr uint64_t kWindowInserts = 16384;
static_assert(kWindowInserts % kCommitEvery == 0,
              "the counter window ends just after a commit");
// Streamed records are generated this many at a time, when the stream
// reaches them, so the input held grows only with what the run inserts.
constexpr uint64_t kStreamChunk = 16384;
constexpr int kQueries = 4096;
constexpr int kVerifyQueries = 64;

segidx::core::IndexOptions Options() {
  segidx::core::IndexOptions options;
  options.pager.base_block_size = 1024;
  options.pager.buffer_pool_bytes = 4u << 20;
  return options;
}

// Appends chunk `chunk` of the seed's records to *out: chunk 0 is the
// preload, later ones the stream, each drawn from its own seed.
void AppendChunk(uint64_t seed, uint64_t chunk, uint64_t count,
                 std::deque<Rect>* out) {
  segidx::workload::DatasetSpec spec;
  spec.kind = segidx::workload::DatasetKind::kM1;
  spec.count = count;
  spec.seed = seed * 1000003 + chunk;
  const std::vector<Rect> part = segidx::workload::GenerateDataset(spec);
  out->insert(out->end(), part.begin(), part.end());
}

Status Create(const std::string& path, DeviceCounters* counters,
              std::unique_ptr<IntervalIndex>* out) {
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<segidx::storage::FileBlockDevice> file,
      segidx::storage::FileBlockDevice::Open(path, /*create=*/true));
  SEGIDX_RETURN_IF_ERROR(file->Truncate(0));
  SEGIDX_ASSIGN_OR_RETURN(
      *out, IntervalIndex::CreateWithDevice(
                IndexKind::kSRTree,
                std::make_unique<CountingDevice>(std::move(file), counters),
                Options()));
  return Status::OK();
}

}  // namespace

Status RunDiskIngest(const RunConfig& config, RunResult* result) {
  // Records in tuple-id order: the preload, then the stream.
  std::deque<Rect> data;
  uint64_t chunks = 0;
  AppendChunk(config.seed, chunks++, kPreload, &data);
  AppendChunk(config.seed, chunks++, kStreamChunk, &data);
  const std::vector<Rect> queries = segidx::workload::GenerateQueries(
      1.0, 1e6, kQueries, config.seed * 104729 + 3);
  const std::string path = config.work_dir + "/disk_ingest.idx";
  const double rss_base_mb = RssMb();

  // Set-up: preload and commit, repeated on a fresh file; the last index
  // is kept. Set-up is never traced, so core.* spans are the stream's.
  EndToEndInputs e2e;
  LayerInputs layers;
  std::unique_ptr<DeviceCounters> device;
  std::unique_ptr<IntervalIndex> index;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (index != nullptr) SEGIDX_RETURN_IF_ERROR(index->Close());
    index.reset();
    device = std::make_unique<DeviceCounters>();
    const Clock::time_point t0 = Clock::now();
    SEGIDX_RETURN_IF_ERROR(Create(path, device.get(), &index));
    for (uint64_t i = 0; i < kPreload; ++i) {
      SEGIDX_RETURN_IF_ERROR(index->Insert(data[i], i));
    }
    SEGIDX_RETURN_IF_ERROR(index->Commit());
    e2e.setup_s.Add(SecondsBetween(t0, Clock::now()));
  }

  // Measured phase: the insert stream with its searches and commits.
  std::vector<segidx::rtree::SearchHit> hits;
  uint64_t inserted = 0;
  uint64_t searches = 0;
  const CounterSnapshot before = TakeSnapshot(index.get(), *device);
  // Ends the counter window: counter deltas and index bytes per record.
  auto close_window = [&] {
    layers.delta = TakeSnapshot(index.get(), *device).Minus(before);
    e2e.bytes_per_record = static_cast<double>(index->index_bytes()) /
                           static_cast<double>(kPreload + inserted);
  };
  {
    SlicedPhase phase(config);
    while (phase.Next()) {
      const uint64_t tid = kPreload + inserted;
      if (tid == data.size()) {
        AppendChunk(config.seed, chunks++, kStreamChunk, &data);
      }
      Clock::time_point t0 = Clock::now();
      {
        trace::Span span("core.Insert");
        SEGIDX_RETURN_IF_ERROR(index->Insert(data[tid], tid));
      }
      ++inserted;
      if (!phase.traced()) {
        e2e.insert_us.Add(MicrosBetween(t0, Clock::now()));
      }
      if (inserted % kSearchEvery == 0) {
        hits.clear();
        uint64_t nodes = 0;
        t0 = Clock::now();
        {
          trace::Span span("core.Search");
          SEGIDX_RETURN_IF_ERROR(
              index->Search(queries[searches % queries.size()], &hits, &nodes));
        }
        ++searches;
        const double us = MicrosBetween(t0, Clock::now());
        if (phase.traced()) {
          layers.traced_search_us.Add(us);
          layers.traced_search_nodes += nodes;
        } else {
          e2e.search_us.Add(us);
        }
      }
      if (inserted % kCommitEvery == 0) {
        t0 = Clock::now();
        {
          trace::Span span("core.Commit");
          SEGIDX_RETURN_IF_ERROR(index->Commit());
        }
        if (!phase.traced()) {
          layers.commit_us.Add(MicrosBetween(t0, Clock::now()));
        }
      }
      if (inserted == kWindowInserts) close_window();
    }
  }
  e2e.rss_mb = PeakRssMb() - rss_base_mb;
  e2e.insert_per_s =
      static_cast<double>(e2e.insert_us.count()) / UntracedSeconds(config);
  e2e.search_qps =
      static_cast<double>(e2e.search_us.count()) / UntracedSeconds(config);
  result->attempted = inserted + searches;
  if (inserted < kWindowInserts) {
    Note("only %llu inserts streamed; the counter window is the whole phase",
         static_cast<unsigned long long>(inserted));
    close_window();
  }
  SEGIDX_RETURN_IF_ERROR(index->Commit());
  const uint64_t records = kPreload + inserted;
  Note("disk_ingest: %llu records, index %.1f MB, %llu inserts streamed",
       static_cast<unsigned long long>(records),
       static_cast<double>(index->index_bytes()) / (1 << 20),
       static_cast<unsigned long long>(inserted));

  // Correctness gate: close, reopen from the file, and check it.
  SEGIDX_RETURN_IF_ERROR(index->Close());
  index.reset();
  SEGIDX_ASSIGN_OR_RETURN(index, IntervalIndex::OpenFromDisk(path, Options()));
  if (index->size() != records) {
    return segidx::InternalError(
        "reopened index holds " + std::to_string(index->size()) +
        " records, expected " + std::to_string(records));
  }
  SEGIDX_ASSIGN_OR_RETURN(segidx::check::CheckReport check,
                          index->CheckStructure());
  SEGIDX_RETURN_IF_ERROR(check.ToStatus());
  segidx::oracle::NaiveOracle oracle;
  for (uint64_t i = 0; i < records; ++i) oracle.Insert(data[i], i);
  const std::vector<Rect> verify(queries.begin(),
                                 queries.begin() + kVerifyQueries);
  SEGIDX_RETURN_IF_ERROR(
      CheckAgainstOracle(index.get(), oracle, verify, &layers.distinct_ratio));
  SEGIDX_RETURN_IF_ERROR(index->Close());

  FinishRun(e2e, layers, result);
  return Status::OK();
}

}  // namespace segbench
