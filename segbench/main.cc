// segbench: one workload per process.
//
//   segbench --workload paper_search|disk_ingest|serve_mixed --seed N
//            --seconds S --trace 0|1 --work-dir DIR
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A failed or incorrect run exits 1 and prints no metrics.
// segbench/run.py builds this binary and is the usual entry point.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

using segbench::RunConfig;
using segbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "segbench: %s\nusage: segbench --workload "
               "paper_search|disk_ingest|serve_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    double number = 0;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage(("bad value for " + key).c_str());
    } else if (key == "--seed") {
      config.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (key == "--seconds") {
      config.seconds = number;
      have_seconds = number > 0;
    } else if (key == "--trace") {
      config.trace = number != 0;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || config.work_dir.empty()) {
    return Usage("missing or malformed flags");
  }

  RunResult result;
  segidx::Status status;
  if (workload == "paper_search") {
    status = segbench::RunPaperSearch(config, &result);
  } else if (workload == "disk_ingest") {
    status = segbench::RunDiskIngest(config, &result);
  } else if (workload == "serve_mixed") {
    status = segbench::RunServeMixed(config, &result);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "segbench: %s failed: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  const segbench::Report& shown =
      config.trace ? result.per_layer : result.end_to_end;
  std::fprintf(stderr, "%s seed=%llu %s metrics:\n%s", workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.trace ? "per-layer" : "end-to-end",
               shown.ToText().c_str());
  if (config.trace) {
    std::fprintf(stderr, "span self time (traced slices):\n");
    for (const auto& s : segbench::trace::Summarize()) {
      std::fprintf(stderr,
                   "  %-24s %10llu spans %14.1f us total %14.1f us self\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.count),
                   s.total_us, s.self_us);
    }
    const std::string path = config.work_dir + "/" + workload + ".spans.tsv";
    if (!segbench::trace::WriteTsv(path)) {
      std::fprintf(stderr, "segbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              shown.ToJsonObject().c_str());
  return 0;
}
