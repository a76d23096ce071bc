// The one place the benchmark reads library counters and turns them into
// per-layer metrics.
//
// A CounterSnapshot flattens StorageStats, TreeStats, LatchStats, the
// CountingDevice totals and (for a served index) the server's stats JSON
// into "layer.counter" names. Workloads take a snapshot at each edge of a
// counter window; BuildLayerReport turns the difference, plus the span
// summary and the few values a workload measures itself, into the per-layer
// metrics. A renamed or added library counter is updated here and nowhere
// else.

#ifndef SEGBENCH_COUNTERS_H_
#define SEGBENCH_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/interval_index.h"
#include "counting_device.h"
#include "report.h"
#include "trace.h"

namespace segbench {

class CounterSnapshot {
 public:
  // 0 for a counter that was not captured.
  double Get(const std::string& name) const;
  void Set(const std::string& name, double value) { values_[name] = value; }
  // Element-wise difference (this - earlier).
  CounterSnapshot Minus(const CounterSnapshot& earlier) const;

 private:
  std::map<std::string, double> values_;
};

// Snapshots the index's storage, tree and latch counters plus the device
// totals. `server_stats_json`, when non-empty, is the document a kStats
// request returns; its server.* counters are captured too. A consistent
// snapshot needs the quiescence the stats structs document, which the
// direct workloads have at their window edges; a served index's counters
// are monotonic, so a live snapshot is off by at most in-flight requests.
CounterSnapshot TakeSnapshot(segidx::core::IntervalIndex* index,
                             const DeviceCounters& device,
                             const std::string& server_stats_json = "");

// Bytes one inserted record carries: four coordinates and a tuple id.
inline constexpr uint64_t kRecordBytes = 4 * sizeof(double) + sizeof(uint64_t);

// Everything the per-layer report is computed from.
struct LayerInputs {
  // Counter difference over the workload's counter window.
  CounterSnapshot delta;
  // Span totals from the traced slices, and the node visits the traced
  // core.Search calls reported.
  std::vector<trace::NameSummary> spans;
  uint64_t traced_search_nodes = 0;
  // Skeleton build, timed around the insert that triggers it.
  double skeleton_build_s = 0;
  uint64_t skeleton_coalesced_nodes = 0;
  // Distinct tuple ids / returned pieces over the verification queries.
  double distinct_ratio = 0;
  // Untraced Commit() latencies (us).
  Samples commit_us;
  // Health round trips and generator lateness (us), serve_mixed only.
  Samples health_rtt_us;
  Samples late_us;
  // Search latencies (us) of the traced slices.
  Samples traced_search_us;
  // Filled by FinishRun from the untraced figures.
  double untraced_search_p50_us = 0;
  double search_p99_us = 0;
  double insert_p99_us = 0;
};

// Every per-layer metric, in a fixed order (README.md defines each one).
// Metrics of a layer the workload never reached read 0.
Report BuildLayerReport(LayerInputs& in);

}  // namespace segbench

#endif  // SEGBENCH_COUNTERS_H_
