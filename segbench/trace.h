// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into the library (core.Search, core.Insert, ...), around device
// I/O in the CountingDevice decorator (storage.device.*), and per generator
// request (server.request). Each span keeps its parent: the span open on
// the same thread when it began, so device I/O issued inside a core call is
// charged to that call. Self time of a span name is its total duration
// minus the time covered by its child spans.
//
// Recording is off until SetEnabled(true) and may be toggled between
// measurement slices; a disabled Span costs one relaxed load. Spans stay in
// memory until Summarize()/WriteTsv(), which need quiescence (every thread
// that recorded has stopped recording).

#ifndef SEGBENCH_TRACE_H_
#define SEGBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace segbench::trace {

void SetEnabled(bool on);
bool Enabled();

// RAII span around a call; parented to the span open on this thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;  // 0 = not recording.
  uint64_t parent_ = 0;
  Clock::time_point start_;
};

// Records an already-finished span parented to the span open on this thread
// (device I/O from the decorator).
void RecordChild(const char* name, Clock::time_point start,
                 Clock::time_point end);
// Records an already-finished span with no parent (an asynchronous request
// whose lifetime does not nest in any call on the recording thread). It is
// recorded whatever the enabled state: the caller decides which requests
// belong to traced slices.
void RecordRoot(const char* name, Clock::time_point start,
                Clock::time_point end);

struct NameSummary {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;  // total minus time covered by child spans.
};

// Per-name totals over every span recorded so far, sorted by name.
std::vector<NameSummary> Summarize();
// Looks `name` up in a summary; a zero entry when absent.
NameSummary Find(const std::vector<NameSummary>& summary,
                 const std::string& name);
// Writes every span as "id parent name start_ns end_ns" lines.
bool WriteTsv(const std::string& path);

}  // namespace segbench::trace

#endif  // SEGBENCH_TRACE_H_
