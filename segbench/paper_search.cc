// paper_search: the paper's own protocol on the in-memory Skeleton SR-Tree.
//
// 100 K I3 records (uniform Y, exponential lengths) are inserted in
// generation order with the paper's prediction sample (T = 10%), into a
// buffer pool that holds the whole index. The counter window is one fixed
// pass of the paper's queries (13 QARs x 100 area-10^6 searches), which
// also warms up; it makes the node counts exact for a seed. The measured
// phase is a closed loop of IntervalIndex::Search on one thread cycling
// through the 13-value QAR sweep.

#include <memory>
#include <vector>

#include "bench_support/experiment.h"
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

// Set-ups per run (setup_s is their median); each is a full build.
constexpr int kSetupRepeats = 3;
constexpr uint64_t kRecords = 100000;
constexpr double kQueryArea = 1e6;
constexpr int kPaperQueriesPerQar = 100;
constexpr int kLoopQueriesPerQar = 256;
constexpr int kVerifyQueriesPerQar = 8;

// Declaration order matters: the index writes to the device counters
// until it is destroyed.
struct Build {
  std::unique_ptr<DeviceCounters> device;
  std::unique_ptr<IntervalIndex> index;

  void Reset() {
    index.reset();
    device.reset();
  }
};

// Creates the index and inserts every record, timing each insert. The
// insert that fills the prediction sample builds the skeleton; it is timed
// (and traced) as the skeleton build instead of as an insert.
Status BuildIndex(const segidx::bench_support::ExperimentConfig& paper,
                  const std::vector<Rect>& data, Build* out,
                  Samples* insert_us, double* skeleton_build_s) {
  out->device = std::make_unique<DeviceCounters>();
  SEGIDX_ASSIGN_OR_RETURN(
      out->index,
      IntervalIndex::CreateWithDevice(
          IndexKind::kSkeletonSRTree,
          std::make_unique<CountingDevice>(
              std::make_unique<segidx::storage::MemoryBlockDevice>(),
              out->device.get()),
          paper.options));
  const uint64_t trigger = paper.options.skeleton.prediction_sample;
  for (uint64_t i = 0; i < data.size(); ++i) {
    const bool builds = i + 1 == trigger;
    const Clock::time_point t0 = Clock::now();
    {
      trace::Span span(builds ? "skeleton.build" : "core.Insert");
      SEGIDX_RETURN_IF_ERROR(out->index->Insert(data[i], i));
    }
    const Clock::time_point t1 = Clock::now();
    if (builds) {
      if (out->index->skeleton_building()) {
        return segidx::InternalError("skeleton not built at the sample size");
      }
      *skeleton_build_s = SecondsBetween(t0, t1);
    } else {
      insert_us->Add(MicrosBetween(t0, t1));
    }
  }
  return out->index->Finalize();
}

}  // namespace

Status RunPaperSearch(const RunConfig& config, RunResult* result) {
  segidx::bench_support::BenchArgs args;
  args.tuples = kRecords;
  args.seed = config.seed;
  const segidx::bench_support::ExperimentConfig paper =
      segidx::bench_support::MakePaperConfig(segidx::workload::DatasetKind::kI3,
                                             args);
  const std::vector<Rect> data =
      segidx::workload::GenerateDataset(paper.dataset);
  const std::vector<double>& qars = segidx::workload::PaperQarSweep();
  std::vector<std::vector<Rect>> paper_queries, loop_queries;
  for (size_t q = 0; q < qars.size(); ++q) {
    paper_queries.push_back(segidx::workload::GenerateQueries(
        qars[q], kQueryArea, kPaperQueriesPerQar, config.seed));
    loop_queries.push_back(segidx::workload::GenerateQueries(
        qars[q], kQueryArea, kLoopQueriesPerQar, config.seed * 7919 + q + 1));
  }
  const double rss_base_mb = RssMb();

  // Set-up: the whole build, repeated; the last build is kept (and traced
  // in a traced run).
  EndToEndInputs e2e;
  LayerInputs layers;
  Build build;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    build.Reset();  // Free the previous index before timing the next.
    trace::SetEnabled(config.trace && rep + 1 == kSetupRepeats);
    const Clock::time_point t0 = Clock::now();
    SEGIDX_RETURN_IF_ERROR(BuildIndex(paper, data, &build, &e2e.insert_us,
                                      &layers.skeleton_build_s));
    e2e.setup_s.Add(SecondsBetween(t0, Clock::now()));
    trace::SetEnabled(false);
  }
  IntervalIndex* index = build.index.get();
  e2e.insert_per_s = static_cast<double>(kRecords) / e2e.setup_s.Median();
  layers.skeleton_coalesced_nodes = index->tree_stats().coalesced_nodes;

  // Counter window: one fixed pass of the paper's queries.
  std::vector<segidx::rtree::SearchHit> hits;
  const CounterSnapshot before = TakeSnapshot(index, *build.device);
  for (const std::vector<Rect>& queries : paper_queries) {
    for (const Rect& q : queries) {
      hits.clear();
      SEGIDX_RETURN_IF_ERROR(index->Search(q, &hits));
    }
  }
  layers.delta = TakeSnapshot(index, *build.device).Minus(before);

  // Measured phase: closed loop over the QAR sweep.
  {
    SlicedPhase phase(config);
    uint64_t i = 0;
    while (phase.Next()) {
      const Rect& q = loop_queries[i % qars.size()]
                                  [(i / qars.size()) % kLoopQueriesPerQar];
      ++i;
      hits.clear();
      uint64_t nodes = 0;
      const Clock::time_point t0 = Clock::now();
      {
        trace::Span span("core.Search");
        SEGIDX_RETURN_IF_ERROR(index->Search(q, &hits, &nodes));
      }
      const double us = MicrosBetween(t0, Clock::now());
      if (phase.traced()) {
        layers.traced_search_us.Add(us);
        layers.traced_search_nodes += nodes;
      } else {
        e2e.search_us.Add(us);
      }
    }
    result->attempted = i;
  }
  e2e.rss_mb = PeakRssMb() - rss_base_mb;
  if (build.device->read_bytes.load() != 0) {
    return segidx::InternalError(
        "paper_search read from the device: the pool does not hold the index");
  }
  e2e.search_qps =
      static_cast<double>(e2e.search_us.count()) / UntracedSeconds(config);
  e2e.bytes_per_record = static_cast<double>(index->index_bytes()) /
                         static_cast<double>(index->size());

  // Correctness gate, outside every timed region.
  segidx::oracle::NaiveOracle oracle;
  for (uint64_t i = 0; i < data.size(); ++i) oracle.Insert(data[i], i);
  std::vector<Rect> verify;
  for (const std::vector<Rect>& queries : loop_queries) {
    verify.insert(verify.end(), queries.begin(),
                  queries.begin() + kVerifyQueriesPerQar);
  }
  if (index->size() != kRecords) {
    return segidx::InternalError("index holds " +
                                 std::to_string(index->size()) + " records");
  }
  SEGIDX_RETURN_IF_ERROR(
      CheckAgainstOracle(index, oracle, verify, &layers.distinct_ratio));

  FinishRun(e2e, layers, result);
  return Status::OK();
}

}  // namespace segbench
