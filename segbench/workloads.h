// The benchmark's workloads and the pieces they share. Each workload runs
// in its own process, builds its inputs from the seed, measures for the
// requested time, checks its results, and fills a RunResult. README.md
// says why each was chosen.

#ifndef SEGBENCH_WORKLOADS_H_
#define SEGBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "core/interval_index.h"
#include "counters.h"
#include "oracle/naive_oracle.h"
#include "report.h"

namespace segbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  // Traced run: the measured phase alternates untraced and traced slices.
  bool trace = false;
  // Scratch directory inside the checkout (index files, span dump).
  std::string work_dir;
};

// Length of one measurement slice. A traced run alternates slices with
// tracing off and on, so both halves see the same index growth and the
// same machine noise.
inline constexpr double kSliceSeconds = 0.25;

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report end_to_end;  // From untraced slices only.
  Report per_layer;
};

// A non-OK status means the run could not complete or its results were
// wrong; the caller then prints no metrics.
segidx::Status RunPaperSearch(const RunConfig& config, RunResult* result);
segidx::Status RunDiskIngest(const RunConfig& config, RunResult* result);
segidx::Status RunServeMixed(const RunConfig& config, RunResult* result);

// Whether slice `k` (0-based) of the measured phase is traced.
inline bool SliceTraced(bool trace_run, uint64_t k) {
  return trace_run && k % 2 == 1;
}

// Wall time of the untraced slices of a config.seconds phase (all of it
// when not tracing).
double UntracedSeconds(const RunConfig& config);

// Walks a measured phase of config.seconds slice by slice, switching span
// recording on for traced slices. Call Next() before each operation.
class SlicedPhase {
 public:
  explicit SlicedPhase(const RunConfig& config);
  ~SlicedPhase();  // Leaves tracing off.
  SlicedPhase(const SlicedPhase&) = delete;
  SlicedPhase& operator=(const SlicedPhase&) = delete;

  // False once the phase is over; otherwise the current slice's tracing
  // state is in effect and traced() reports it.
  bool Next();
  bool traced() const { return traced_; }

 private:
  const RunConfig& config_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool traced_ = false;
};

// Inputs of the end-to-end metrics, from untraced operations only.
struct EndToEndInputs {
  Samples setup_s;
  Samples search_us;
  Samples insert_us;
  double search_qps = 0;
  double insert_per_s = 0;
  double bytes_per_record = 0;
  // Peak RSS at the end of the measured phase minus the RSS once the inputs
  // were generated (MB): what the index and its measured work hold.
  double rss_mb = 0;
};

// Builds both reports once a workload has measured everything: the
// end-to-end metrics in BENCHMARK.json order, and the
// per-layer metrics, completed with the span summary, the search and
// insert p99 (tail.*) and the traced-vs-untraced comparison.
void FinishRun(EndToEndInputs& e2e, LayerInputs& layers, RunResult* result);

// Runs every query through SearchTuples (distinct ids) and Search (stored
// pieces) and compares the ids with the oracle. *distinct_ratio receives
// distinct ids / returned pieces over all queries.
segidx::Status CheckAgainstOracle(segidx::core::IntervalIndex* index,
                                  const segidx::oracle::NaiveOracle& oracle,
                                  const std::vector<segidx::Rect>& queries,
                                  double* distinct_ratio);

// A single-line progress note on stderr.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace segbench

#endif  // SEGBENCH_WORKLOADS_H_
