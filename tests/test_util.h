// Shared helpers for the index test suites.

#ifndef SEGIDX_TESTS_TEST_UTIL_H_
#define SEGIDX_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "check/structure_checker.h"
#include "common/status.h"
#include "common/types.h"
#include "rtree/rtree.h"
#include "storage/block_device.h"
#include "storage/pager.h"

namespace segidx::test_util {

inline std::unique_ptr<storage::Pager> MakeMemoryPager(
    size_t buffer_pool_bytes = 64u << 20) {
  storage::PagerOptions options;
  options.buffer_pool_bytes = buffer_pool_bytes;
  auto result =
      storage::Pager::Create(std::make_unique<storage::MemoryBlockDevice>(),
                             options);
  SEGIDX_CHECK(result.ok());
  return std::move(result).value();
}

// Full structural check of a quiescent tree (check::StructureChecker with
// default options), reduced to its first violation.
inline Status CheckTree(rtree::RTree* tree) {
  Result<check::CheckReport> report = check::StructureChecker(tree).Check();
  if (!report.ok()) return report.status();
  return report->ToStatus();
}

// Distinct tuple ids from search hits, sorted (matches NaiveOracle output).
inline std::vector<TupleId> Tids(const std::vector<rtree::SearchHit>& hits) {
  std::vector<TupleId> out;
  out.reserve(hits.size());
  for (const rtree::SearchHit& hit : hits) out.push_back(hit.tid);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace segidx::test_util

#endif  // SEGIDX_TESTS_TEST_UTIL_H_
