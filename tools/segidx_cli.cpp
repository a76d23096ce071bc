// segidx command-line tool: create, load, query, and inspect index files.
//
//   segidx create --file=idx --kind=skeleton-srtree [--expected=N]
//                 [--domain=xlo:xhi:ylo:yhi] [--sample=N]
//   segidx insert --file=idx [--input=data.csv]
//       CSV rows: tid,xlo,xhi[,ylo,yhi]   (2 coords = 1-D interval at y=0)
//   segidx query  --file=idx --rect=xlo:xhi:ylo:yhi [--limit=N]
//   segidx stats  --file=idx [--dump=DEPTH]
//   segidx verify --file=idx
//   segidx check  --file=idx [--min-fill=1] [--tight=1] [--strict=1]
//                 [--no-quota=1] [--no-pages=1] [--max-violations=N]
//   segidx scrub  --file=idx [--rate=EXTENTS_PER_SEC] [--no-quarantine=1]
//   segidx salvage --file=damaged --out=new [--kind=rtree|srtree]
//   segidx torture [--mode=crash|scrub|serve] [--kind=srtree] [--records=N]
//                 [--checkpoint-every=N] [--tear=BYTES] [--max-points=N]
//                 [--rounds=N] [--corrupt=N] [--seed=S] [--pool=BYTES]
//                 [--quiet=1]
//   segidx serve  --file=idx [--port=N] [--host=ADDR] [--threads=N]
//                 [--writers=N] [--max-batch=N] [--queue-depth=N]
//                 [--max-inflight=N] [--commit-every=N] [--budget-us=N]
//                 [--scrub-interval-ms=N] [--scrub-rate=N]
//
// `verify` runs the full StructureChecker walk with default options and
// prints the first violation; `check` runs it with the flags' options and
// prints every violation plus walk statistics.
// `scrub` CRC-verifies every reachable node page plus the superblock slots
// and free extents (exit 1 when defects are found); `salvage` scavenges
// every decodable record out of a damaged file into a fresh index at
// --out. `torture` runs the crash-recovery sweep (--mode=crash, default),
// the content-corruption scrub/salvage sweep (--mode=scrub) or the
// serving chaos sweep (--mode=serve); all run in memory, no --file.
//
// Every command that opens an index file prints the pager's recovery
// report to stderr (slot fallbacks and journal replays are operator
// signals).
//
// Exit codes: 0 success, 1 runtime error / violations found, 2 usage error.

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/interval_index.h"
#include "core/salvage.h"
#include "server/server.h"
#include "torture/recovery_torture.h"
#include "torture/scrub_torture.h"
#include "torture/serve_torture.h"

namespace {

using namespace segidx;
using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;

int Usage() {
  std::fprintf(
      stderr,
      "usage: segidx "
      "<create|insert|query|stats|verify|check|scrub|salvage|serve> "
      "--file=PATH ...\n"
      "       segidx <torture> ...  (in memory; no --file)\n"
      "  create: --kind=rtree|srtree|skeleton-rtree|skeleton-srtree\n"
      "          [--expected=N] [--sample=N] [--domain=xlo:xhi:ylo:yhi]\n"
      "  insert: [--input=CSV]  rows: tid,xlo,xhi[,ylo,yhi]\n"
      "  query:  --rect=xlo:xhi:ylo:yhi [--limit=N]\n"
      "  stats:  [--dump=DEPTH]  (print tree structure to DEPTH levels)\n"
      "  verify: full structure check, prints the first violation\n"
      "  check:  full structural report  [--min-fill=1] [--tight=1]\n"
      "          [--strict=1] [--no-quota=1] [--no-pages=1]\n"
      "          [--max-violations=N]\n"
      "  scrub:  verify every extent  [--rate=EXTENTS_PER_SEC]\n"
      "          [--no-quarantine=1]\n"
      "  salvage: rebuild from a damaged file  --out=NEW_PATH\n"
      "          [--kind=rtree|srtree]\n"
      "  torture: fault sweeps (no --file; runs in memory)\n"
      "          --mode=crash (default): [--kind=srtree] [--records=N]\n"
      "          [--checkpoint-every=N] [--tear=BYTES] [--max-points=N]\n"
      "          --mode=scrub: [--kind=srtree] [--records=N] [--rounds=N]\n"
      "          [--corrupt=N]\n"
      "          --mode=serve: end-to-end serving chaos (network faults +\n"
      "          server crash/restart; exactly-once oracle)\n"
      "          [--kind=rtree|srtree] [--writers=N] [--readers=N]\n"
      "          [--ops=N] [--chaos-rounds=N] [--crash-rounds=N]\n"
      "          [--crashes=N] [--reset-prob=F] [--delay-prob=F]\n"
      "          [--short-write-prob=F] [--commit-every=N]\n"
      "          [--deadline-ms=N]\n"
      "          common: [--seed=S] [--pool=BYTES] [--quiet=1]\n"
      "  serve:  socket server (segidxd); stop with SIGINT/SIGTERM\n"
      "          [--port=N] [--host=ADDR] [--threads=N] [--writers=N]\n"
      "          [--max-batch=N] [--queue-depth=N] [--max-inflight=N]\n"
      "          [--commit-every=N] [--budget-us=N]\n"
      "          [--scrub-interval-ms=N] [--scrub-rate=N]\n");
  return 2;
}

// Simple --key=value argument map.
struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> kv;

  std::optional<std::string> Get(const std::string& key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
};

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return std::nullopt;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return std::nullopt;
    args.kv.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return args;
}

std::optional<IndexKind> ParseKind(const std::string& name) {
  if (name == "rtree") return IndexKind::kRTree;
  if (name == "srtree") return IndexKind::kSRTree;
  if (name == "skeleton-rtree") return IndexKind::kSkeletonRTree;
  if (name == "skeleton-srtree") return IndexKind::kSkeletonSRTree;
  return std::nullopt;
}

// Parses "a:b:c:d" into exactly `n` doubles.
std::optional<std::vector<double>> ParseColons(const std::string& text,
                                               size_t n) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string piece;
  while (std::getline(ss, piece, ':')) {
    char* end = nullptr;
    const double v = std::strtod(piece.c_str(), &end);
    if (end == piece.c_str() || *end != '\0') return std::nullopt;
    out.push_back(v);
  }
  if (out.size() != n) return std::nullopt;
  return out;
}

// Strict numeric value parsers: the whole string must be one number, no
// trailing garbage, no overflow. std::stoull and friends would throw (and,
// uncaught, abort the process) on input like --records=abc; a typo in a
// flag is a user error, not a crash.
bool ParseU64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseF64Value(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// Flag readers. Absent flags leave *out at its default and succeed;
// present-but-malformed values print what was rejected and return false,
// which callers turn into exit code 1. All integer flags in this CLI are
// counts or sizes, so negatives are always rejected; `require_positive`
// additionally rejects zero (e.g. --threads=0 would spin up no workers).
bool GetU64(const Args& args, const char* key, uint64_t* out,
            bool require_positive = false) {
  const auto v = args.Get(key);
  if (!v) return true;
  uint64_t parsed = 0;
  if (!ParseU64Value(*v, &parsed) || (require_positive && parsed == 0)) {
    std::fprintf(stderr, "--%s: expected a %s integer, got '%s'\n", key,
                 require_positive ? "positive" : "non-negative", v->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool GetSize(const Args& args, const char* key, size_t* out,
             bool require_positive = false) {
  uint64_t v = *out;
  if (!GetU64(args, key, &v, require_positive)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool GetI32(const Args& args, const char* key, int* out,
            bool require_positive = false) {
  uint64_t v = static_cast<uint64_t>(*out);
  if (!GetU64(args, key, &v, require_positive)) return false;
  if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "--%s: value %llu out of range\n", key,
                 static_cast<unsigned long long>(v));
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool GetF64(const Args& args, const char* key, double* out) {
  const auto v = args.Get(key);
  if (!v) return true;
  double parsed = 0;
  if (!ParseF64Value(*v, &parsed)) {
    std::fprintf(stderr, "--%s: expected a number, got '%s'\n", key,
                 v->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

// Index options from flags. nullopt (after printing the offending flag)
// when a value does not parse — including a malformed --domain, which used
// to be dropped silently.
std::optional<IndexOptions> OptionsFrom(const Args& args) {
  IndexOptions options;
  if (!GetU64(args, "expected", &options.skeleton.expected_tuples) ||
      !GetU64(args, "sample", &options.skeleton.prediction_sample)) {
    return std::nullopt;
  }
  if (auto domain = args.Get("domain")) {
    const auto v = ParseColons(*domain, 4);
    if (!v) {
      std::fprintf(stderr, "--domain: want xlo:xhi:ylo:yhi, got '%s'\n",
                   domain->c_str());
      return std::nullopt;
    }
    options.skeleton.x_domain = Interval((*v)[0], (*v)[1]);
    options.skeleton.y_domain = Interval((*v)[2], (*v)[3]);
  }
  return options;
}

// Opens an index file and surfaces the pager's recovery report on stderr —
// a slot fallback or journal replay is an operator signal even when the
// command itself succeeds.
Result<std::unique_ptr<IntervalIndex>> OpenIndex(const Args& args,
                                                 const std::string& file) {
  const auto options = OptionsFrom(args);
  if (!options) return InvalidArgumentError("bad flag value");
  auto opened = IntervalIndex::OpenFromDisk(file, *options);
  if (opened.ok()) {
    const storage::RecoveryReport& rec =
        (*opened)->pager()->recovery_report();
    std::string line = "recovery: slot " + std::to_string(rec.active_slot) +
                       ", epoch " + std::to_string(rec.epoch);
    if (rec.fell_back) line += ", FELL BACK to the older superblock slot";
    if (rec.journal_replayed) {
      line += ", replayed " + std::to_string(rec.journal_entries) +
              " journal entries (" + std::to_string(rec.pages_salvaged) +
              " page images)";
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  return opened;
}

int CmdCreate(const Args& args, const std::string& file) {
  const auto kind_name = args.Get("kind");
  if (!kind_name) return Usage();
  const auto kind = ParseKind(*kind_name);
  if (!kind) {
    std::fprintf(stderr, "unknown kind: %s\n", kind_name->c_str());
    return 2;
  }
  const auto options = OptionsFrom(args);
  if (!options) return 1;
  auto index = IntervalIndex::CreateOnDisk(*kind, file, *options);
  if (!index.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  if (auto st = (*index)->Commit(); !st.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("created %s index at %s\n", IndexKindName(*kind),
              file.c_str());
  return 0;
}

int CmdInsert(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  std::ifstream file_input;
  if (auto input = args.Get("input")) {
    file_input.open(*input);
    if (!file_input) {
      std::fprintf(stderr, "cannot open %s\n", input->c_str());
      return 1;
    }
  }
  std::istream& in = file_input.is_open() ? file_input : std::cin;

  uint64_t inserted = 0;
  uint64_t line_number = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string piece;
    std::vector<std::string> fields;
    while (std::getline(ss, piece, ',')) fields.push_back(piece);
    if (fields.size() != 3 && fields.size() != 5) {
      std::fprintf(stderr, "line %llu: expected 3 or 5 fields\n",
                   static_cast<unsigned long long>(line_number));
      return 1;
    }
    const TupleId tid = std::strtoull(fields[0].c_str(), nullptr, 10);
    const double xlo = std::strtod(fields[1].c_str(), nullptr);
    const double xhi = std::strtod(fields[2].c_str(), nullptr);
    Rect rect = fields.size() == 3
                    ? Rect::Segment1D(xlo, xhi)
                    : Rect(xlo, xhi, std::strtod(fields[3].c_str(), nullptr),
                           std::strtod(fields[4].c_str(), nullptr));
    if (auto st = index->Insert(rect, tid); !st.ok()) {
      std::fprintf(stderr, "line %llu: insert failed: %s\n",
                   static_cast<unsigned long long>(line_number),
                   st.ToString().c_str());
      return 1;
    }
    ++inserted;
  }
  if (auto st = index->Commit(); !st.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("inserted %llu records (index now holds %llu)\n",
              static_cast<unsigned long long>(inserted),
              static_cast<unsigned long long>(index->size()));
  return 0;
}

int CmdQuery(const Args& args, const std::string& file) {
  const auto rect_arg = args.Get("rect");
  if (!rect_arg) return Usage();
  const auto coords = ParseColons(*rect_arg, 4);
  if (!coords) {
    std::fprintf(stderr, "bad --rect (want xlo:xhi:ylo:yhi)\n");
    return 2;
  }
  const Rect query((*coords)[0], (*coords)[1], (*coords)[2], (*coords)[3]);
  if (!query.valid()) {
    std::fprintf(stderr, "invalid query rectangle\n");
    return 2;
  }
  size_t limit = 20;
  if (!GetSize(args, "limit", &limit)) return 1;

  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  std::vector<rtree::SearchHit> hits;
  uint64_t nodes = 0;
  if (auto st = index->Search(query, &hits, &nodes); !st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<TupleId> tids;
  (void)index->SearchTuples(query, &tids);
  std::printf("%zu records (%zu stored pieces), %llu index nodes accessed\n",
              tids.size(), hits.size(),
              static_cast<unsigned long long>(nodes));
  for (size_t i = 0; i < hits.size() && i < limit; ++i) {
    std::printf("  tid=%llu rect=%s\n",
                static_cast<unsigned long long>(hits[i].tid),
                hits[i].rect.ToString().c_str());
  }
  if (hits.size() > limit) {
    std::printf("  ... (%zu more; raise --limit)\n", hits.size() - limit);
  }
  return 0;
}

int CmdStats(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();
  std::printf("kind:    %s\n", IndexKindName(index->kind()));
  std::printf("records: %llu\n",
              static_cast<unsigned long long>(index->size()));
  std::printf("height:  %d\n", index->height());
  std::printf("bytes:   %llu\n",
              static_cast<unsigned long long>(index->index_bytes()));
  if (args.Get("dump")) {
    int depth = 0;
    if (!GetI32(args, "dump", &depth)) return 1;
    return index->tree()->DumpStructure(std::cout, depth).ok() ? 0 : 1;
  }
  auto stats = index->tree()->CollectLevelStats();
  if (stats.ok()) {
    for (size_t level = 0; level < stats->size(); ++level) {
      const auto& s = (*stats)[level];
      std::printf(
          "level %zu: %llu nodes, %llu entries, %llu spanning, "
          "avg region %.0fx%.0f\n",
          level, static_cast<unsigned long long>(s.nodes),
          static_cast<unsigned long long>(s.branch_entries),
          static_cast<unsigned long long>(s.spanning_entries),
          s.avg_region_width, s.avg_region_height);
    }
  }
  const rtree::LatchStats latch = index->tree()->latch_stats();
  static const char* const kModeNames[3] = {"read", "write", "exclusive"};
  for (int m = 0; m < 3; ++m) {
    std::printf("gate %-9s %llu enters, %llu blocked, %llu us waiting\n",
                kModeNames[m],
                static_cast<unsigned long long>(latch.gate_enters[m]),
                static_cast<unsigned long long>(latch.gate_blocked[m]),
                static_cast<unsigned long long>(latch.gate_wait_us[m]));
  }
  std::printf("node latch:     %llu acquires, %llu blocked, %llu us waiting\n",
              static_cast<unsigned long long>(latch.latch_acquires),
              static_cast<unsigned long long>(latch.latch_blocked),
              static_cast<unsigned long long>(latch.latch_wait_us));
  return 0;
}

int CmdVerify(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const Status st = (*opened)->CheckInvariants();
  if (!st.ok()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("ok: all structural invariants hold\n");
  return 0;
}

int CmdCheck(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  check::CheckOptions options;
  auto flag = [&args](const char* key) {
    const auto v = args.Get(key);
    return v.has_value() && *v != "0";
  };
  options.expect_min_fill = flag("min-fill");
  options.check_mbr_tightness = flag("tight");
  options.strict_spanning_placement = flag("strict");
  options.check_spanning_quota = !flag("no-quota");
  options.check_page_accounting = !flag("no-pages");
  if (!GetSize(args, "max-violations", &options.max_violations)) return 1;

  auto report = (*opened)->CheckStructure(options);
  if (!report.ok()) {
    std::fprintf(stderr, "check failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  return report->ok() ? 0 : 1;
}

int CmdScrub(const Args& args, const std::string& file) {
  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  storage::ScrubOptions options;
  if (!GetU64(args, "rate", &options.max_extents_per_second)) return 1;
  if (auto v = args.Get("no-quarantine"); v.has_value() && *v != "0") {
    options.quarantine_damaged = false;
  }
  auto report = (*opened)->Scrub(options);
  if (!report.ok()) {
    std::fprintf(stderr, "scrub failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->ToString().c_str(), stdout);
  if (!report->clean() && options.quarantine_damaged) {
    std::printf("%zu page(s) quarantined; partial searches will skip them "
                "— run `segidx salvage` to rebuild\n",
                (*opened)->pager()->quarantined_count());
  }
  return report->clean() ? 0 : 1;
}

int CmdSalvage(const Args& args, const std::string& file) {
  const auto out = args.Get("out");
  if (!out) return Usage();
  core::SalvageOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind || core::IsSkeleton(*kind)) {
      std::fprintf(stderr,
                   "salvage rebuild kind must be rtree or srtree\n");
      return 2;
    }
    options.rebuild_kind = *kind;
  }
  auto report = core::SalvageFile(file, *out, options);
  if (!report.ok()) {
    std::fprintf(stderr, "salvage failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  // Prove the rebuilt index is sound before anyone relies on it.
  auto reopened = IntervalIndex::OpenFromDisk(*out, IndexOptions());
  if (!reopened.ok()) {
    std::fprintf(stderr, "rebuilt index does not open: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  if (auto st = (*reopened)->CheckInvariants(); !st.ok()) {
    std::fprintf(stderr, "rebuilt index fails structure check: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("rebuilt index at %s passes all structural checks\n",
              out->c_str());
  return 0;
}

// SIGINT/SIGTERM ask `segidx serve` to shut down gracefully.
volatile std::sig_atomic_t g_stop_serving = 0;

void HandleStopSignal(int) { g_stop_serving = 1; }

int CmdServe(const Args& args, const std::string& file) {
  server::ServerOptions sopts;
  if (auto v = args.Get("host")) sopts.host = *v;
  uint64_t port = 0;
  size_t max_batch = sopts.max_batch;
  if (!GetU64(args, "port", &port) ||
      !GetI32(args, "threads", &sopts.search_threads,
              /*require_positive=*/true) ||
      !GetI32(args, "writers", &sopts.write_threads,
              /*require_positive=*/true) ||
      !GetSize(args, "max-batch", &max_batch, /*require_positive=*/true) ||
      !GetSize(args, "queue-depth", &sopts.max_queue_depth,
               /*require_positive=*/true) ||
      !GetI32(args, "max-inflight", &sopts.max_inflight_per_conn,
              /*require_positive=*/true) ||
      !GetU64(args, "commit-every", &sopts.commit_every) ||
      !GetU64(args, "budget-us", &sopts.default_budget_us) ||
      !GetU64(args, "scrub-interval-ms", &sopts.scrub_interval_ms) ||
      !GetU64(args, "scrub-rate", &sopts.scrub_extents_per_second)) {
    return 1;
  }
  if (port > 65535) {
    std::fprintf(stderr, "--port: %llu is not a TCP port\n",
                 static_cast<unsigned long long>(port));
    return 1;
  }
  sopts.port = static_cast<uint16_t>(port);
  sopts.max_batch = max_batch;

  auto opened = OpenIndex(args, file);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto index = std::move(opened).value();

  server::Server server(index.get(), sopts);
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Scripts (and the serving integration test) parse this line for the
  // bound port, so flush it before blocking.
  std::printf("serving %s on %s:%u\n", file.c_str(), sopts.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_serving) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down\n");
  server.Stop();
  if (auto st = index->Close(); !st.ok()) {
    std::fprintf(stderr, "final checkpoint failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdScrubTorture(const Args& args) {
  torture::ScrubTortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetU64(args, "records", &options.records,
              /*require_positive=*/true) ||
      !GetU64(args, "rounds", &options.rounds, /*require_positive=*/true) ||
      !GetU64(args, "corrupt", &options.max_corrupt_per_round,
              /*require_positive=*/true) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunScrubTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "scrub torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "corrupted %llu pages over %llu rounds; partial searches dropped "
      "%llu records, salvage recovered %llu\n",
      static_cast<unsigned long long>(report->pages_corrupted),
      static_cast<unsigned long long>(report->rounds_run),
      static_cast<unsigned long long>(report->records_skipped),
      static_cast<unsigned long long>(report->records_salvaged));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu rounds violated resilience guarantees\n",
                 report->failures.size());
    return 1;
  }
  std::printf(
      "every round: scrub found exactly the damage, searches stayed "
      "partial-correct, salvage recovered all reachable records\n");
  return 0;
}

int CmdServeTorture(const Args& args) {
  torture::ServeTortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetI32(args, "writers", &options.writers,
              /*require_positive=*/true) ||
      !GetI32(args, "readers", &options.readers) ||
      !GetU64(args, "ops", &options.ops_per_writer,
              /*require_positive=*/true) ||
      !GetI32(args, "chaos-rounds", &options.chaos_rounds) ||
      !GetI32(args, "crash-rounds", &options.crash_rounds) ||
      !GetI32(args, "crashes", &options.crashes_per_round,
              /*require_positive=*/true) ||
      !GetF64(args, "reset-prob", &options.reset_prob) ||
      !GetF64(args, "delay-prob", &options.delay_prob) ||
      !GetF64(args, "short-write-prob", &options.short_write_prob) ||
      !GetU64(args, "commit-every", &options.server_commit_every,
              /*require_positive=*/true) ||
      !GetU64(args, "deadline-ms", &options.client_deadline_ms,
              /*require_positive=*/true) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunServeTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "serve torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "ran %llu rounds, %llu server crashes; clients: %llu reconnects, "
      "%llu retries over %llu injected transport faults; acked %llu "
      "inserts + %llu deletes (%llu in doubt), %llu dedup replays\n",
      static_cast<unsigned long long>(report->rounds_run),
      static_cast<unsigned long long>(report->server_crashes),
      static_cast<unsigned long long>(report->client_reconnects),
      static_cast<unsigned long long>(report->client_retries),
      static_cast<unsigned long long>(report->transport_faults),
      static_cast<unsigned long long>(report->acked_inserts),
      static_cast<unsigned long long>(report->acked_deletes),
      static_cast<unsigned long long>(report->unresolved_ops),
      static_cast<unsigned long long>(report->dedup_hits));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu exactly-once violations\n",
                 report->failures.size());
    return 1;
  }
  std::printf(
      "every acked write survived exactly once; no losses, duplicates, or "
      "resurrections\n");
  return 0;
}

int CmdTorture(const Args& args) {
  if (auto mode = args.Get("mode"); mode.has_value()) {
    if (*mode == "scrub") return CmdScrubTorture(args);
    if (*mode == "serve") return CmdServeTorture(args);
    if (*mode != "crash") {
      std::fprintf(stderr, "--mode: expected crash, scrub, or serve; got "
                           "'%s'\n",
                   mode->c_str());
      return 2;
    }
  }
  torture::TortureOptions options;
  if (auto v = args.Get("kind")) {
    const auto kind = ParseKind(*v);
    if (!kind) {
      std::fprintf(stderr, "unknown kind: %s\n", v->c_str());
      return 2;
    }
    options.kind = *kind;
  }
  uint64_t seed = options.seed;
  if (!GetU64(args, "records", &options.records,
              /*require_positive=*/true) ||
      !GetU64(args, "checkpoint-every", &options.checkpoint_every,
              /*require_positive=*/true) ||
      !GetSize(args, "tear", &options.tear_bytes) ||
      !GetU64(args, "max-points", &options.max_fault_points) ||
      !GetU64(args, "seed", &seed) ||
      !GetSize(args, "pool", &options.index.pager.buffer_pool_bytes,
               /*require_positive=*/true)) {
    return 1;
  }
  options.seed = static_cast<uint32_t>(seed);
  options.log_progress = !args.Get("quiet").has_value();

  auto report = torture::RunRecoveryTorture(options);
  if (!report.ok()) {
    std::fprintf(stderr, "torture harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "swept %llu fault points over ops [%llu, %llu), %llu checkpoints; "
      "%llu slot fallbacks, %llu journal replays\n",
      static_cast<unsigned long long>(report->fault_points_run),
      static_cast<unsigned long long>(report->first_fault_op),
      static_cast<unsigned long long>(report->total_ops),
      static_cast<unsigned long long>(report->checkpoints),
      static_cast<unsigned long long>(report->fallbacks),
      static_cast<unsigned long long>(report->journal_replays));
  if (!report->ok()) {
    for (const std::string& failure : report->failures) {
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    }
    std::fprintf(stderr, "%zu fault points violated recovery guarantees\n",
                 report->failures.size());
    return 1;
  }
  std::printf("every crash point recovered to a consistent checkpoint\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) return Usage();
  if (args->command == "torture") return CmdTorture(*args);
  const auto file = args->Get("file");
  if (!file) return Usage();

  if (args->command == "create") return CmdCreate(*args, *file);
  if (args->command == "insert") return CmdInsert(*args, *file);
  if (args->command == "query") return CmdQuery(*args, *file);
  if (args->command == "stats") return CmdStats(*args, *file);
  if (args->command == "verify") return CmdVerify(*args, *file);
  if (args->command == "check") return CmdCheck(*args, *file);
  if (args->command == "scrub") return CmdScrub(*args, *file);
  if (args->command == "salvage") return CmdSalvage(*args, *file);
  if (args->command == "serve") return CmdServe(*args, *file);
  return Usage();
}
