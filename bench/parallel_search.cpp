// Parallel search throughput over the graph1 (I1) workload.
//
// Builds an R-Tree over the I1 interval dataset, runs a batch of
// area-10^6 queries serially, then through IntervalIndex::SearchBatch at
// 1/2/4/8 worker threads. Every parallel run must return bit-identical
// result sets to the serial baseline (same hits, same order per query);
// the binary fails otherwise. Throughput and speedup are printed per thread
// count and written to results/parallel_search.csv.
//
// Flags: --tuples=N --queries=N --seed=N (see ParseBenchArgs).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_support/experiment.h"
#include "core/interval_index.h"
#include "workload/datasets.h"

namespace {

using namespace segidx;

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kQueryArea = 1e6;  // The paper's query area.

bool Identical(const std::vector<rtree::SearchHit>& a,
               const std::vector<rtree::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tid != b[i].tid || !(a[i].rect == b[i].rect)) return false;
  }
  return true;
}

int Run(const bench_support::BenchArgs& args) {
  workload::DatasetSpec spec;
  spec.kind = workload::DatasetKind::kI1;
  spec.count = args.tuples;
  spec.seed = args.seed;
  std::vector<Rect> rects = workload::GenerateDataset(spec);
  std::vector<std::pair<Rect, TupleId>> records;
  records.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    records.emplace_back(rects[i], static_cast<TupleId>(i));
  }

  auto created = core::IntervalIndex::CreateInMemory(core::IndexKind::kRTree,
                                                     core::IndexOptions{});
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(created).value();
  if (auto st = index->BulkLoad(std::move(records)); !st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::cout << "=== Parallel search (graph1 / I1 workload) ===\n"
            << "tuples: " << args.tuples << ", height: " << index->height()
            << "\n";

  // A large batch at QAR 1 amortizes pool wake-up; every query is the
  // paper's area (10^6).
  const int batch = args.queries * 100;
  const std::vector<Rect> queries =
      workload::GenerateQueries(/*qar=*/1.0, kQueryArea, batch, args.seed);

  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<rtree::SearchHit>> serial(queries.size());
  const auto serial_start = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (auto st = index->tree()->Search(queries[i], &serial[i]); !st.ok()) {
      std::fprintf(stderr, "search failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const double serial_secs =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  std::printf("%8s %12s %10s %9s\n", "threads", "queries/s", "time(s)",
              "speedup");
  std::printf("%8s %12.0f %10.3f %9s\n", "serial",
              queries.size() / serial_secs, serial_secs, "1.00x");

  std::vector<std::pair<int, double>> rows;
  for (int threads : kThreadCounts) {
    std::vector<core::BatchResult> results;
    const auto start = Clock::now();
    if (auto st = index->SearchBatch(queries, &results, threads); !st.ok()) {
      std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!Identical(results[i].hits, serial[i])) {
        std::fprintf(stderr,
                     "MISMATCH: query %zu differs from serial at %d "
                     "threads\n",
                     i, threads);
        return 1;
      }
    }
    rows.emplace_back(threads, queries.size() / secs);
    std::printf("%8d %12.0f %10.3f %8.2fx\n", threads,
                queries.size() / secs, secs, serial_secs / secs);
  }
  std::cout << "all parallel result sets identical to serial\n";

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  std::ofstream csv("results/parallel_search.csv");
  if (csv) {
    csv << "threads,queries_per_sec\nserial,"
        << queries.size() / serial_secs << '\n';
    for (const auto& [threads, qps] : rows) {
      csv << threads << ',' << qps << '\n';
    }
    std::cout << "series written to results/parallel_search.csv\n";
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
