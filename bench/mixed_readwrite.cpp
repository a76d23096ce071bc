// Mixed read/write throughput over the graph1 (I1) uniform-interval
// workload.
//
// Preloads an R-Tree with half the dataset, then for each writer count
// (1/2/4) pushes the other half through that many writer threads calling
// IntervalIndex::Insert — concurrent inserts under the tree's shared write
// phase, each writer committing through the group-commit sequencer after
// every kCommitEvery of its own inserts, plus one final commit per pass.
// Two passes per writer count: write-only (the scaling headline) and
// mixed, where reader threads run point-in-time queries concurrently and
// their throughput is reported alongside. After every pass the tree is
// checked against the expected record count; the binary fails on any
// error.
//
// Flags: --tuples=N --queries=N --seed=N (see ParseBenchArgs).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/experiment.h"
#include "core/interval_index.h"
#include "workload/datasets.h"

namespace {

using namespace segidx;

constexpr int kWriterCounts[] = {1, 2, 4};
constexpr int kReaders = 2;
constexpr double kQueryArea = 1e6;  // The paper's query area.
constexpr uint64_t kCommitEvery = 1024;

struct PassResult {
  double inserts_per_sec = 0;
  double queries_per_sec = 0;  // Mixed pass only.
  uint64_t commit_batches = 0;
  uint64_t commit_requests = 0;
  rtree::LatchStats latch;  // Gate/latch contention over the pass.
};

// One timed insert pass: `writers` threads inserting rects[first..] (tid =
// position in `rects`), with `readers` threads running queries until the
// writers finish.
bool RunPass(core::IntervalIndex* index, const std::vector<Rect>& rects,
             size_t first, int writers, int readers,
             const std::vector<Rect>& queries, PassResult* out) {
  std::atomic<size_t> next{first};  // Next rect to insert.
  std::atomic<bool> writer_failed{false};
  auto writer = [&] {
    uint64_t since_commit = 0;
    while (!writer_failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= rects.size()) return;
      Status st = index->Insert(rects[i], static_cast<TupleId>(i));
      if (st.ok() && ++since_commit == kCommitEvery) {
        since_commit = 0;
        st = index->Commit();
      }
      if (!st.ok()) {
        std::fprintf(stderr, "writer failed: %s\n", st.ToString().c_str());
        writer_failed.store(true);
        return;
      }
    }
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_done{0};
  std::vector<std::thread> reader_threads;
  std::atomic<bool> reader_failed{false};
  for (int r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      size_t qi = static_cast<size_t>(r);
      std::vector<rtree::SearchHit> hits;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.clear();
        if (!index->Search(queries[qi % queries.size()], &hits).ok()) {
          reader_failed.store(true);
          return;
        }
        qi += static_cast<size_t>(readers);
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  using Clock = std::chrono::steady_clock;
  const uint64_t batches_before = index->storage_stats().commit_batches;
  const uint64_t requests_before = index->storage_stats().commit_requests;
  const auto t0 = Clock::now();
  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) writer_threads.emplace_back(writer);
  for (std::thread& t : writer_threads) t.join();
  // Final commit: every insert of the pass is durable before it ends.
  const Status st = index->Commit();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  stop.store(true);
  for (std::thread& t : reader_threads) t.join();
  if (writer_failed.load()) return false;
  if (!st.ok()) {
    std::fprintf(stderr, "final commit failed: %s\n", st.ToString().c_str());
    return false;
  }
  if (reader_failed.load()) {
    std::fprintf(stderr, "reader thread failed\n");
    return false;
  }
  out->inserts_per_sec = static_cast<double>(rects.size() - first) / secs;
  out->queries_per_sec = static_cast<double>(queries_done.load()) / secs;
  out->commit_batches =
      index->storage_stats().commit_batches - batches_before;
  out->commit_requests =
      index->storage_stats().commit_requests - requests_before;
  // Each pass uses a fresh index, so the counters are this pass's alone.
  out->latch = index->tree()->latch_stats();
  return true;
}

int Run(const bench_support::BenchArgs& args) {
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI1;
  spec.count = args.tuples;
  spec.seed = args.seed;
  std::vector<Rect> rects = workload::GenerateDataset(spec);
  const size_t preload_count = rects.size() / 2;

  const std::vector<Rect> queries =
      workload::GenerateQueries(/*qar=*/1.0, kQueryArea,
                                std::max(args.queries, 64), args.seed);

  std::cout << "=== Mixed read/write (graph1 / I1 workload) ===\n"
            << "tuples: " << args.tuples << " (half preloaded), readers: "
            << kReaders << ", commit every " << kCommitEvery
            << " ops/worker\n";
  std::printf("%8s %6s %12s %12s %9s %14s %16s\n", "writers", "mode",
              "inserts/s", "queries/s", "speedup", "commits (b/r)",
              "gate-wait (ms)");

  double write_only_1w = 0;
  std::vector<std::pair<int, PassResult>> rows;
  for (int writers : kWriterCounts) {
    for (int readers : {0, kReaders}) {
      // Fresh index per pass so every pass inserts into the same shape.
      auto created = core::IntervalIndex::CreateInMemory(
          core::IndexKind::kRTree, core::IndexOptions{});
      if (!created.ok()) {
        std::fprintf(stderr, "create failed: %s\n",
                     created.status().ToString().c_str());
        return 1;
      }
      auto index = std::move(created).value();
      std::vector<std::pair<Rect, TupleId>> preload;
      preload.reserve(preload_count);
      for (size_t i = 0; i < preload_count; ++i) {
        preload.emplace_back(rects[i], static_cast<TupleId>(i));
      }
      if (auto st = index->BulkLoad(std::move(preload)); !st.ok()) {
        std::fprintf(stderr, "bulk load failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      PassResult result;
      if (!RunPass(index.get(), rects, preload_count, writers, readers,
                   queries, &result)) {
        return 1;
      }
      if (index->size() != rects.size()) {
        std::fprintf(stderr, "record count mismatch: %llu != %zu\n",
                     static_cast<unsigned long long>(index->size()),
                     rects.size());
        return 1;
      }
      if (auto st = index->CheckInvariants(); !st.ok()) {
        std::fprintf(stderr, "invariant violation after %d-writer pass: %s\n",
                     writers, st.ToString().c_str());
        return 1;
      }
      const bool mixed = readers > 0;
      if (!mixed && writers == 1) write_only_1w = result.inserts_per_sec;
      const double speedup =
          mixed ? 0 : result.inserts_per_sec / write_only_1w;
      char speedup_str[16] = "-";
      if (!mixed) {
        std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
      }
      const double gate_wait_ms =
          static_cast<double>(result.latch.gate_wait_us[0] +
                              result.latch.gate_wait_us[1] +
                              result.latch.gate_wait_us[2]) /
          1000.0;
      std::printf("%8d %6s %12.0f %12.0f %9s %7llu/%llu %16.1f\n", writers,
                  mixed ? "mixed" : "write", result.inserts_per_sec,
                  result.queries_per_sec, speedup_str,
                  static_cast<unsigned long long>(result.commit_batches),
                  static_cast<unsigned long long>(result.commit_requests),
                  gate_wait_ms);
      if (!mixed) rows.emplace_back(writers, result);
    }
  }
  std::cout << "all passes structurally clean\n";

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  std::ofstream csv("results/mixed_readwrite.csv");
  if (csv) {
    csv << "writers,inserts_per_sec,speedup,gate_write_blocked,"
           "gate_write_wait_us,node_latch_blocked,node_latch_wait_us\n";
    for (const auto& [writers, r] : rows) {
      csv << writers << ',' << r.inserts_per_sec << ','
          << r.inserts_per_sec / write_only_1w << ','
          << r.latch.gate_blocked[1] << ',' << r.latch.gate_wait_us[1]
          << ',' << r.latch.latch_blocked << ',' << r.latch.latch_wait_us
          << '\n';
    }
    std::cout << "series written to results/mixed_readwrite.csv\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench_support::ParseBenchArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().message().c_str());
    return 2;
  }
  return Run(*args);
}
