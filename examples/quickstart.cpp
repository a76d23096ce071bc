// Quickstart: create a Skeleton SR-Tree, insert interval records, run
// point / range / window queries, and inspect statistics.
//
//   ./quickstart [index-file]
//
// With no argument the index lives in memory; with a path it is persisted
// and could be re-opened with IntervalIndex::OpenFromDisk.

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"

using segidx::Interval;
using segidx::Rect;
using segidx::TupleId;
using segidx::core::IndexKind;
using segidx::core::IndexOptions;
using segidx::core::IntervalIndex;

int main(int argc, char** argv) {
  // 1. Configure. The skeleton options matter only for skeleton kinds:
  //    the index buffers the first `prediction_sample` inserts, histograms
  //    them, and pre-partitions the tree (paper Section 4).
  IndexOptions options;
  options.skeleton.expected_tuples = 10000;
  options.skeleton.prediction_sample = 1000;
  options.skeleton.x_domain = Interval(0, 100000);
  options.skeleton.y_domain = Interval(0, 100000);

  // 2. Create the index (any of kRTree / kSRTree / kSkeletonRTree /
  //    kSkeletonSRTree behind one API).
  auto created =
      argc > 1
          ? IntervalIndex::CreateOnDisk(IndexKind::kSkeletonSRTree, argv[1],
                                        options)
          : IntervalIndex::CreateInMemory(IndexKind::kSkeletonSRTree,
                                          options);
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(created).value();

  // 3. Insert records: 2-D rectangles, 1-D intervals at a Y position, or
  //    points. The tuple id is an opaque reference to your row.
  segidx::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(0, 99000);
    const double y = rng.Uniform(0, 99000);
    TupleId tid = static_cast<TupleId>(i);
    if (i % 3 == 0) {
      // A "historical" record: interval in X (time), point in Y.
      (void)index->InsertInterval(Interval(x, x + 800), y, tid);
    } else {
      (void)index->Insert(Rect(x, x + 50, y, y + 50), tid);
    }
  }
  (void)index->Finalize();  // Force skeleton construction if still buffering.

  // 4. Query. Search returns stored entries; SearchTuples deduplicates to
  //    logical records (an SR-Tree may store one record as several cut
  //    pieces).
  std::vector<TupleId> hits;
  uint64_t nodes_accessed = 0;
  const Rect window(20000, 26000, 30000, 36000);
  if (auto st = index->SearchTuples(window, &hits, &nodes_accessed);
      !st.ok()) {
    std::fprintf(stderr, "search failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("window %s -> %zu records, %llu index nodes accessed\n",
              window.ToString().c_str(), hits.size(),
              static_cast<unsigned long long>(nodes_accessed));

  // 5. Inspect.
  std::printf("index kind: %s\n", IndexKindName(index->kind()));
  std::printf("records: %llu, height: %d, on-disk size: %llu KiB\n",
              static_cast<unsigned long long>(index->size()),
              index->height(),
              static_cast<unsigned long long>(index->index_bytes() / 1024));
  const auto& ts = index->tree_stats();
  std::printf("spanning records placed: %llu, cuts: %llu, coalesced: %llu\n",
              static_cast<unsigned long long>(ts.spanning_placed),
              static_cast<unsigned long long>(ts.cuts),
              static_cast<unsigned long long>(ts.coalesced_nodes));

  // 6. Persist (no-op for the in-memory backend, but keeps the example
  //    copy-pasteable for file-backed indexes).
  if (auto st = index->Commit(); !st.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (argc > 1) {
    std::printf("index persisted to %s\n", argv[1]);
  }
  return 0;
}
