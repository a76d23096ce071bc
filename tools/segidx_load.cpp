// Load generator for segidxd: mixed search/insert traffic over N client
// connections, reporting p50/p99 latency per operation type and aggregate
// throughput as JSON (to stdout, and to --out). It is the one way to
// measure a file-backed server (`segidx serve --file`); CI runs it with
// --chaos=1 as the chaos-serving job's smoke gate.
//
//   segidx_load [--records=N] [--connections=N] [--duration-ms=N]
//               [--write-pct=0..100] [--budget-us=N] [--qar=F] [--seed=S]
//               [--threads=N] [--writers=N] [--commit-every=N]
//               [--chaos=0|1] [--reset-prob=F] [--delay-prob=F]
//               [--short-write-prob=F] [--host=ADDR --port=N]
//               [--out=JSON_PATH]
//
// By default the tool self-hosts: it builds an in-memory index preloaded
// with --records uniform intervals, starts a server::Server on a loopback
// ephemeral port, drives it, and tears it down — one process, no setup.
// With --host/--port it drives an already-running segidxd instead (the
// preload is skipped; whatever the server holds is queried as-is).
//
// Each connection thread runs its own blocking client: a coin per op
// picks insert (--write-pct) or search (square query covering --qar of
// the preload domain, carrying --budget-us as its deadline budget).
// Searches that the server answers kDeadlineExceeded / kResourceExhausted
// are counted, not failed: exercising admission control under load is the
// point. A final commit makes the inserted records durable before the
// server stops.
//
// --chaos=1 installs the process-global transport fault plan (connection
// resets, torn frames, randomized delays — tunable via the *-prob flags)
// and switches every worker to a RetryingClient with its own exactly-once
// session, so the numbers measure goodput under a hostile network rather
// than the first reset. Ops abandoned after the retry budget are counted
// (`gave_up`), not failed. Chaos only perturbs this process's own
// syscalls; with --host/--port it degrades the client side only.
//
// Exit codes: 0 success, 1 hard failure (connection error, unexpected
// status), 2 usage error.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"
#include "server/client.h"
#include "server/faulty_transport.h"
#include "server/retrying_client.h"
#include "server/server.h"

namespace {

using namespace segidx;
using core::IntervalIndex;

int Usage() {
  std::fprintf(
      stderr,
      "usage: segidx_load [--records=N] [--connections=N] "
      "[--duration-ms=N]\n"
      "                   [--write-pct=0..100] [--budget-us=N] [--qar=F]\n"
      "                   [--seed=S] [--threads=N] [--writers=N]\n"
      "                   [--commit-every=N] [--chaos=0|1] "
      "[--reset-prob=F]\n"
      "                   [--delay-prob=F] [--short-write-prob=F]\n"
      "                   [--host=ADDR --port=N] [--out=JSON_PATH]\n");
  return 2;
}

struct Flags {
  uint64_t records = 20000;
  int connections = 4;
  uint64_t duration_ms = 2000;
  uint64_t write_pct = 20;
  uint64_t budget_us = 0;
  double qar = 0.001;
  uint64_t seed = 42;
  int threads = 4;       // Server-side search workers (self-host).
  int writers = 2;       // Server-side write workers (self-host).
  uint64_t commit_every = 256;
  bool chaos = false;
  double reset_prob = 0.02;        // Chaos-mode transport fault plan.
  double delay_prob = 0.05;
  double short_write_prob = 0.01;
  std::string host = "127.0.0.1";
  std::optional<uint64_t> port;  // Set = drive an external server.
  std::optional<std::string> out;
};

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

// nullopt (after printing the offending flag) on any malformed value.
std::optional<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  auto fail = [](const std::string& key,
                 const std::string& value) -> std::optional<Flags> {
    std::fprintf(stderr, "--%s: bad value '%s'\n", key.c_str(),
                 value.c_str());
    return std::nullopt;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return std::nullopt;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    uint64_t u = 0;
    if (key == "host") {
      flags.host = value;
    } else if (key == "out") {
      flags.out = value;
    } else if (key == "qar" || key == "reset-prob" || key == "delay-prob" ||
               key == "short-write-prob") {
      char* end = nullptr;
      errno = 0;
      const double d = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        return fail(key, value);
      }
      if (key == "qar") {
        if (d <= 0) return fail(key, value);
        flags.qar = d;
      } else if (d < 0 || d > 1) {
        return fail(key, value);
      } else if (key == "reset-prob") {
        flags.reset_prob = d;
      } else if (key == "delay-prob") {
        flags.delay_prob = d;
      } else {
        flags.short_write_prob = d;
      }
    } else if (!ParseU64Value(value, &u)) {
      return fail(key, value);
    } else if (key == "records") {
      flags.records = u;
    } else if (key == "connections") {
      if (u == 0) return fail(key, value);
      flags.connections = static_cast<int>(u);
    } else if (key == "duration-ms") {
      if (u == 0) return fail(key, value);
      flags.duration_ms = u;
    } else if (key == "write-pct") {
      if (u > 100) return fail(key, value);
      flags.write_pct = u;
    } else if (key == "budget-us") {
      flags.budget_us = u;
    } else if (key == "seed") {
      flags.seed = u;
    } else if (key == "threads") {
      if (u == 0) return fail(key, value);
      flags.threads = static_cast<int>(u);
    } else if (key == "writers") {
      if (u == 0) return fail(key, value);
      flags.writers = static_cast<int>(u);
    } else if (key == "commit-every") {
      flags.commit_every = u;
    } else if (key == "chaos") {
      if (u > 1) return fail(key, value);
      flags.chaos = (u == 1);
    } else if (key == "port") {
      if (u > 65535) return fail(key, value);
      flags.port = u;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return std::nullopt;
    }
  }
  return flags;
}

constexpr double kDomain = 100000.0;

Rect RandomInterval(Rng* rng) {
  const double s = rng->Uniform(0.0, kDomain);
  return Rect(Interval(s, s + rng->Uniform(1.0, 200.0)),
              Interval::Point(rng->Uniform(0.0, kDomain)));
}

struct ThreadResult {
  std::vector<double> search_us;
  std::vector<double> insert_us;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  uint64_t unavailable = 0;
  uint64_t hits = 0;
  uint64_t gave_up = 0;     // Chaos: retry budget exhausted, op abandoned.
  uint64_t reconnects = 0;  // Chaos: successful reconnects.
  uint64_t retries = 0;     // Chaos: attempts beyond each op's first.
  std::string error;  // First hard failure; empty = clean.
};

// Codes a RetryingClient keeps retrying; seeing one back means the retry
// budget ran out mid-fault, which chaos mode counts rather than fails.
bool RetryBudgetCode(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t idx =
      static_cast<size_t>(p * (static_cast<double>(values->size()) - 1) +
                          0.5);
  return (*values)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  if (!flags) return Usage();

  // Self-hosted server (unless --port points at an external one).
  std::unique_ptr<IntervalIndex> index;
  std::unique_ptr<server::Server> srv;
  uint16_t port = 0;
  if (flags->port.has_value()) {
    port = static_cast<uint16_t>(*flags->port);
  } else {
    auto created = IntervalIndex::CreateInMemory(core::IndexKind::kRTree,
                                                 core::IndexOptions());
    if (!created.ok()) {
      std::fprintf(stderr, "create failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    index = std::move(created).value();
    Rng rng(flags->seed);
    std::vector<std::pair<Rect, TupleId>> preload;
    preload.reserve(flags->records);
    for (uint64_t i = 0; i < flags->records; ++i) {
      preload.emplace_back(RandomInterval(&rng),
                           static_cast<TupleId>(i + 1));
    }
    if (auto st = index->BulkLoad(std::move(preload)); !st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    server::ServerOptions sopts;
    sopts.search_threads = flags->threads;
    sopts.write_threads = flags->writers;
    sopts.commit_every = flags->commit_every;
    srv = std::make_unique<server::Server>(index.get(), sopts);
    if (auto st = srv->Start(); !st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    port = srv->port();
  }

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(flags->duration_ms);
  const double side = std::sqrt(flags->qar) * kDomain;

  if (flags->chaos) {
    server::transport::FaultPlan plan;
    plan.reset_prob = flags->reset_prob;
    plan.delay_prob = flags->delay_prob;
    plan.short_write_prob = flags->short_write_prob;
    plan.seed = flags->seed;
    server::transport::InstallFaultPlan(plan);
  }

  std::vector<ThreadResult> results(
      static_cast<size_t>(flags->connections));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (int t = 0; t < flags->connections; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& res = results[static_cast<size_t>(t)];
      // Chaos mode drives a RetryingClient (per-thread exactly-once
      // session) instead of a bare Client, so injected resets and torn
      // frames cost retries, not the run.
      std::unique_ptr<server::Client> client;
      std::unique_ptr<server::RetryingClient> rclient;
      if (flags->chaos) {
        server::RetryPolicy policy;
        policy.max_attempts = 6;
        policy.total_deadline_ms = 10000;
        policy.seed = flags->seed + static_cast<uint64_t>(t);
        rclient = std::make_unique<server::RetryingClient>(
            flags->host, port, /*session_id=*/static_cast<uint64_t>(t) + 1,
            policy);
        if (Status st = rclient->Ping(); !st.ok()) {
          res.error = "connect: " + st.ToString();
          return;
        }
      } else {
        auto connected = server::Client::Connect(flags->host, port);
        if (!connected.ok()) {
          res.error = connected.status().ToString();
          return;
        }
        client = std::move(connected).value();
      }
      Rng rng(flags->seed + 1000003ull * static_cast<uint64_t>(t + 1));
      // Tuple ids for inserted records: disjoint per thread, above the
      // preload range.
      TupleId next_tid = 1000000000ull +
                         1000000ull * static_cast<uint64_t>(t);
      while (Clock::now() < deadline) {
        const bool is_write =
            rng.Uniform(0.0, 100.0) < static_cast<double>(flags->write_pct);
        const auto t0 = Clock::now();
        if (is_write) {
          const Rect rect = RandomInterval(&rng);
          const Status st = rclient ? rclient->Insert(rect, next_tid++)
                                    : client->Insert(rect, next_tid++);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          if (st.ok()) {
            res.insert_us.push_back(us);
          } else if (rclient && RetryBudgetCode(st.code())) {
            ++res.gave_up;  // Abandoned mid-fault; the seq stays burned.
          } else {
            res.error = "insert: " + st.ToString();
            return;
          }
        } else {
          const double x = rng.Uniform(0.0, kDomain - side);
          const double y = rng.Uniform(0.0, kDomain - side);
          const Rect q(x, x + side, y, y + side);
          server::SearchReply reply;
          const Status st =
              rclient ? rclient->Search(q, &reply, flags->budget_us,
                                        /*allow_partial=*/true)
                      : client->Search(q, &reply, flags->budget_us,
                                       /*allow_partial=*/true);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          if (st.ok()) {
            res.search_us.push_back(us);
            res.hits += reply.hits.size();
          } else if (rclient && RetryBudgetCode(st.code())) {
            ++res.gave_up;  // Retried through the faults, then abandoned.
          } else if (st.code() == StatusCode::kDeadlineExceeded) {
            ++res.deadline_exceeded;  // Admission control doing its job.
          } else if (st.code() == StatusCode::kResourceExhausted) {
            ++res.shed;
          } else if (st.code() == StatusCode::kUnavailable) {
            ++res.unavailable;
          } else {
            res.error = "search: " + st.ToString();
            return;
          }
        }
      }
      // Make this thread's inserts durable before disconnecting.
      const Status st = rclient ? rclient->Commit() : client->Commit();
      if (!st.ok()) {
        if (rclient && RetryBudgetCode(st.code())) {
          ++res.gave_up;
        } else {
          res.error = "commit: " + st.ToString();
        }
      }
      if (rclient) {
        res.reconnects = rclient->reconnects();
        res.retries = rclient->retries();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Faults stop at the workload's edge: the stats connection below and
  // the server teardown run on a reliable transport.
  uint64_t faults_injected = 0;
  if (flags->chaos) {
    faults_injected = server::transport::FaultsInjected();
    server::transport::ClearFaultPlan();
  }

  // Capture the server's own counters: directly when self-hosting, over
  // the wire when driving an external server.
  std::string server_stats = "{}";
  if (srv != nullptr) {
    server_stats = srv->BuildStatsJson();
    srv->Stop();
  } else if (auto c = server::Client::Connect(flags->host, port); c.ok()) {
    if (auto stats = (*c)->Stats(); stats.ok()) {
      server_stats = std::move(stats).value();
    }
  }

  std::vector<double> search_us, insert_us;
  uint64_t deadline_exceeded = 0, shed = 0, unavailable = 0, hits = 0;
  uint64_t gave_up = 0, reconnects = 0, retries = 0;
  for (const ThreadResult& res : results) {
    if (!res.error.empty()) {
      std::fprintf(stderr, "worker failed: %s\n", res.error.c_str());
      return 1;
    }
    search_us.insert(search_us.end(), res.search_us.begin(),
                     res.search_us.end());
    insert_us.insert(insert_us.end(), res.insert_us.begin(),
                     res.insert_us.end());
    deadline_exceeded += res.deadline_exceeded;
    shed += res.shed;
    unavailable += res.unavailable;
    hits += res.hits;
    gave_up += res.gave_up;
    reconnects += res.reconnects;
    retries += res.retries;
  }
  const double secs = static_cast<double>(flags->duration_ms) / 1000.0;
  const uint64_t total_ops = search_us.size() + insert_us.size();

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\": \"serving\", \"records\": %llu, \"connections\": %d, "
      "\"duration_ms\": %llu, \"write_pct\": %llu, \"budget_us\": %llu, "
      "\"qar\": %g, "
      "\"search\": {\"count\": %zu, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"hits\": %llu, \"deadline_exceeded\": %llu, \"shed\": %llu, "
      "\"unavailable\": %llu}, "
      "\"insert\": {\"count\": %zu, \"p50_us\": %.1f, \"p99_us\": %.1f}, "
      "\"ops_per_sec\": %.0f, ",
      static_cast<unsigned long long>(flags->records), flags->connections,
      static_cast<unsigned long long>(flags->duration_ms),
      static_cast<unsigned long long>(flags->write_pct),
      static_cast<unsigned long long>(flags->budget_us), flags->qar,
      search_us.size(), Percentile(&search_us, 0.50),
      Percentile(&search_us, 0.99), static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(unavailable), insert_us.size(),
      Percentile(&insert_us, 0.50), Percentile(&insert_us, 0.99),
      static_cast<double>(total_ops) / secs);
  std::string json = buf;
  if (flags->chaos) {
    char chaos_buf[256];
    std::snprintf(
        chaos_buf, sizeof(chaos_buf),
        "\"chaos\": {\"faults_injected\": %llu, \"reconnects\": %llu, "
        "\"retries\": %llu, \"gave_up\": %llu}, ",
        static_cast<unsigned long long>(faults_injected),
        static_cast<unsigned long long>(reconnects),
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(gave_up));
    json += chaos_buf;
  }
  json += "\"server\": " + server_stats + "}\n";
  std::fputs(json.c_str(), stdout);
  if (flags->out.has_value()) {
    std::ofstream f(*flags->out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", flags->out->c_str());
      return 1;
    }
    f << json;
  }
  return 0;
}
