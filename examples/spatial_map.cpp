// Spatial scenario: a city map with rectangle features of wildly varying
// sizes — thousands of small building footprints plus a few large parks,
// districts, and transit corridors. Size skew like this is where the
// Skeleton SR-Tree shines (paper Graph 6): large features become spanning
// records in non-leaf nodes instead of elongating leaf regions.
//
// The example builds a file-backed Skeleton SR-Tree, runs map-viewport
// queries at several zoom levels, re-opens the index from disk, and shows
// the storage-level statistics (cache hits, physical reads).

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"

using namespace segidx;

namespace {

constexpr double kCity = 50000;  // Map extent in meters.

std::vector<Rect> GenerateFeatures(Rng& rng) {
  std::vector<Rect> features;
  // 40000 buildings, 10-60 m.
  for (int i = 0; i < 40000; ++i) {
    const double x = rng.Uniform(0, kCity);
    const double y = rng.Uniform(0, kCity);
    features.push_back(
        Rect(x, x + rng.Uniform(10, 60), y, y + rng.Uniform(10, 60)));
  }
  // 300 parks / campuses, 200-2000 m.
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(0, kCity);
    const double y = rng.Uniform(0, kCity);
    features.push_back(Rect(x, x + rng.Uniform(200, 2000), y,
                            y + rng.Uniform(200, 2000)));
  }
  // 40 transit corridors: very long, thin.
  for (int i = 0; i < 40; ++i) {
    const bool horizontal = rng.NextDouble() < 0.5;
    const double pos = rng.Uniform(0, kCity);
    const double lo = rng.Uniform(0, kCity / 4);
    const double hi = lo + rng.Uniform(kCity / 2, 3 * kCity / 4);
    features.push_back(horizontal ? Rect(lo, hi, pos, pos + 30)
                                  : Rect(pos, pos + 30, lo, hi));
  }
  return features;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/segidx_spatial_map.idx";
  Rng rng(7);
  const std::vector<Rect> features = GenerateFeatures(rng);

  core::IndexOptions options;
  options.skeleton.expected_tuples = features.size();
  options.skeleton.prediction_sample = features.size() / 10;
  options.skeleton.x_domain = Interval(0, kCity);
  options.skeleton.y_domain = Interval(0, kCity);
  // A small buffer pool to make the storage layer work for a living.
  options.pager.buffer_pool_bytes = 1u << 20;

  {
    auto index = core::IntervalIndex::CreateOnDisk(
                     core::IndexKind::kSkeletonSRTree, path, options)
                     .value();
    for (size_t i = 0; i < features.size(); ++i) {
      if (auto st = index->Insert(features[i], i); !st.ok()) {
        std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (auto st = index->Commit(); !st.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("built %s: %zu features, height %d, %llu KiB, "
                "%llu spanning records\n",
                path.c_str(), features.size(), index->height(),
                static_cast<unsigned long long>(index->index_bytes() / 1024),
                static_cast<unsigned long long>(
                    index->tree_stats().spanning_placed));
  }

  // Re-open from disk and serve viewport queries at three zoom levels.
  auto reopened = core::IntervalIndex::OpenFromDisk(path, options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(reopened).value();
  std::printf("\nre-opened index: %llu features\n\n",
              static_cast<unsigned long long>(index->size()));

  struct Zoom {
    const char* name;
    double extent;
  };
  for (const Zoom& zoom : {Zoom{"street", 300.0}, Zoom{"district", 3000.0},
                           Zoom{"city", 25000.0}}) {
    uint64_t total_nodes = 0;
    size_t total_hits = 0;
    const int kViews = 50;
    for (int v = 0; v < kViews; ++v) {
      const double cx = rng.Uniform(0, kCity);
      const double cy = rng.Uniform(0, kCity);
      const Rect viewport(cx, cx + zoom.extent, cy, cy + zoom.extent);
      std::vector<TupleId> hits;
      uint64_t nodes = 0;
      (void)index->SearchTuples(viewport, &hits, &nodes);
      total_nodes += nodes;
      total_hits += hits.size();
    }
    std::printf("zoom %-9s (%5.0fm): avg %6.1f features, "
                "avg %5.1f index nodes per viewport\n",
                zoom.name, zoom.extent,
                static_cast<double>(total_hits) / kViews,
                static_cast<double>(total_nodes) / kViews);
  }

  const auto& ss = index->storage_stats();
  std::printf("\nstorage: %llu logical reads, %llu cache hits, "
              "%llu physical reads (1 MiB buffer pool)\n",
              static_cast<unsigned long long>(ss.logical_reads),
              static_cast<unsigned long long>(ss.cache_hits),
              static_cast<unsigned long long>(ss.physical_reads));
  return 0;
}
