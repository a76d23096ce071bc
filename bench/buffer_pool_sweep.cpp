// Buffer-pool sweep (our ablation): the paper's setting assumes "only a
// small portion of the index may reside in main memory at a given time".
// The node-access metric is pool-independent, but actual disk reads are
// not: this bench builds each index on disk once, then re-opens it with
// buffer pools from 64 KiB up and reports physical reads per search and
// the cache hit rate over the paper's square-query workload.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_support/experiment.h"

namespace {

using namespace segidx;

}  // namespace

int main(int argc, char** argv) {
  auto args = bench_support::ParseBenchArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().message().c_str());
    return 2;
  }
  std::cout << "=== Buffer-pool sweep (" << args->tuples
            << " tuples, I3, 500 square searches) ===\n";

  for (core::IndexKind kind :
       {core::IndexKind::kRTree, core::IndexKind::kSkeletonSRTree}) {
    const std::string path =
        "/tmp/segidx_pool_sweep_" +
        std::to_string(static_cast<int>(kind)) + ".idx";
    bench_support::ExperimentConfig config = bench_support::MakePaperConfig(
        workload::DatasetKind::kI3, *args);

    // Build once on disk.
    {
      auto index =
          core::IntervalIndex::CreateOnDisk(kind, path, config.options);
      if (!index.ok()) {
        std::fprintf(stderr, "create failed: %s\n",
                     index.status().ToString().c_str());
        return 1;
      }
      const auto data = workload::GenerateDataset(config.dataset);
      for (size_t i = 0; i < data.size(); ++i) {
        if (auto st = (*index)->Insert(data[i], i); !st.ok()) {
          std::fprintf(stderr, "insert failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      if (auto st = (*index)->Commit(); !st.ok()) {
        std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::cout << "\n--- " << core::IndexKindName(kind) << " ("
                << (*index)->index_bytes() / 1024 << " KiB on disk) ---\n";
    }

    char buf[160];
    std::snprintf(buf, sizeof(buf), "%12s %14s %14s %12s\n", "pool KiB",
                  "nodes/search", "phys rd/search", "hit rate");
    std::cout << buf;
    for (size_t pool_kib : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
      core::IndexOptions options = config.options;
      options.pager.buffer_pool_bytes = pool_kib * 1024;
      auto index = core::IntervalIndex::OpenFromDisk(path, options);
      if (!index.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     index.status().ToString().c_str());
        return 1;
      }
      (*index)->ResetStats();
      const auto queries = workload::GenerateQueries(1.0, 1e6, 500, 11);
      std::vector<rtree::SearchHit> hits;
      for (const Rect& q : queries) {
        hits.clear();
        if (auto st = (*index)->Search(q, &hits); !st.ok()) {
          std::fprintf(stderr, "search failed: %s\n",
                       st.ToString().c_str());
          return 1;
        }
      }
      const auto& ss = (*index)->storage_stats();
      const double per_search =
          static_cast<double>(ss.logical_reads) / queries.size();
      const double phys =
          static_cast<double>(ss.physical_reads) / queries.size();
      const double hit_rate =
          ss.logical_reads == 0
              ? 0
              : static_cast<double>(ss.cache_hits) /
                    static_cast<double>(ss.logical_reads);
      std::snprintf(buf, sizeof(buf), "%12zu %14.1f %14.1f %11.1f%%\n",
                    pool_kib, per_search, phys, 100 * hit_rate);
      std::cout << buf;
    }
    std::remove(path.c_str());
  }
  return 0;
}
