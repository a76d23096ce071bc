#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace segbench {

SlicedPhase::SlicedPhase(const RunConfig& config)
    : config_(config),
      start_(Clock::now()),
      end_(start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.seconds))) {}

SlicedPhase::~SlicedPhase() { trace::SetEnabled(false); }

bool SlicedPhase::Next() {
  const Clock::time_point now = Clock::now();
  if (now >= end_) {
    traced_ = false;
    trace::SetEnabled(false);
    return false;
  }
  const auto slice =
      static_cast<uint64_t>(SecondsBetween(start_, now) / kSliceSeconds);
  traced_ = SliceTraced(config_.trace, slice);
  trace::SetEnabled(traced_);
  return true;
}

double UntracedSeconds(const RunConfig& config) {
  double total = 0;
  for (uint64_t k = 0; static_cast<double>(k) * kSliceSeconds < config.seconds;
       ++k) {
    if (SliceTraced(config.trace, k)) continue;
    const double begin = static_cast<double>(k) * kSliceSeconds;
    total += std::min(config.seconds, begin + kSliceSeconds) - begin;
  }
  return total;
}

void FinishRun(EndToEndInputs& e2e, LayerInputs& layers, RunResult* result) {
  layers.spans = trace::Summarize();
  layers.untraced_search_p50_us = e2e.search_us.Median();
  layers.search_p99_us = e2e.search_us.Percentile(0.99);
  layers.insert_p99_us = e2e.insert_us.Percentile(0.99);
  Report& r = result->end_to_end;
  r.Add("setup_s", e2e.setup_s.Median(), "s");
  r.Add("search_p50_us", e2e.search_us.Median(), "us");
  r.Add("search_qps", e2e.search_qps, "1/s");
  r.Add("insert_p50_us", e2e.insert_us.Median(), "us");
  r.Add("insert_per_s", e2e.insert_per_s, "1/s");
  r.Add("bytes_per_record", e2e.bytes_per_record, "B");
  r.Add("rss_mb", e2e.rss_mb, "MB");
  Note("samples: %zu setups, %zu searches, %zu inserts; p99: search %.1f us, "
       "insert %.1f us",
       e2e.setup_s.count(), e2e.search_us.count(), e2e.insert_us.count(),
       layers.search_p99_us, layers.insert_p99_us);
  result->per_layer = BuildLayerReport(layers);
}

segidx::Status CheckAgainstOracle(segidx::core::IntervalIndex* index,
                                  const segidx::oracle::NaiveOracle& oracle,
                                  const std::vector<segidx::Rect>& queries,
                                  double* distinct_ratio) {
  uint64_t pieces = 0;
  uint64_t distinct = 0;
  std::vector<segidx::TupleId> got;
  std::vector<segidx::rtree::SearchHit> hits;
  for (const segidx::Rect& q : queries) {
    got.clear();
    hits.clear();
    SEGIDX_RETURN_IF_ERROR(index->SearchTuples(q, &got));
    SEGIDX_RETURN_IF_ERROR(index->Search(q, &hits));
    std::sort(got.begin(), got.end());
    const std::vector<segidx::TupleId> want = oracle.Search(q);
    if (got != want) {
      return segidx::InternalError(
          "result mismatch for query " + q.ToString() + ": index returned " +
          std::to_string(got.size()) + " tuples, oracle " +
          std::to_string(want.size()));
    }
    pieces += hits.size();
    distinct += got.size();
  }
  *distinct_ratio = Ratio(static_cast<double>(distinct),
                          static_cast<double>(pieces));
  return segidx::Status::OK();
}

void Note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("segbench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace segbench
