#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace segbench::trace {
namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  Clock::time_point start;
  Clock::time_point end;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Every thread appends to its own buffer; the registry owns the buffers so
// they outlive the threads (server threads exit before the summary runs).
std::mutex g_registry_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

thread_local std::vector<SpanRecord>* tl_buffer = nullptr;
thread_local uint64_t tl_open = 0;  // Innermost open span on this thread.

std::vector<SpanRecord>& Buffer() {
  if (tl_buffer == nullptr) {
    auto buf = std::make_unique<std::vector<SpanRecord>>();
    buf->reserve(1 << 16);
    tl_buffer = buf.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::move(buf));
  }
  return *tl_buffer;
}

void Record(const char* name, uint64_t parent, Clock::time_point start,
            Clock::time_point end) {
  Buffer().push_back(SpanRecord{
      name, g_next_id.fetch_add(1, std::memory_order_relaxed), parent, start,
      end});
}

std::vector<SpanRecord> AllSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& buf : g_buffers) {
    all.insert(all.end(), buf->begin(), buf->end());
  }
  return all;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!Enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_open;
  tl_open = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  tl_open = parent_;
  Buffer().push_back(SpanRecord{name_, id_, parent_, start_, end});
}

void RecordChild(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  if (Enabled()) Record(name, tl_open, start, end);
}

void RecordRoot(const char* name, Clock::time_point start,
                Clock::time_point end) {
  Record(name, 0, start, end);
}

std::vector<NameSummary> Summarize() {
  const std::vector<SpanRecord> all = AllSpans();
  // Time covered by each span's children, keyed by the parent's id.
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) child_us[s.parent] += MicrosBetween(s.start, s.end);
  }
  std::map<std::string, NameSummary> by_name;
  for (const SpanRecord& s : all) {
    NameSummary& n = by_name[s.name];
    n.name = s.name;
    const double us = MicrosBetween(s.start, s.end);
    n.count += 1;
    n.total_us += us;
    const auto it = child_us.find(s.id);
    n.self_us += us - (it == child_us.end() ? 0.0 : it->second);
  }
  std::vector<NameSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

NameSummary Find(const std::vector<NameSummary>& summary,
                 const std::string& name) {
  for (const NameSummary& n : summary) {
    if (n.name == name) return n;
  }
  NameSummary empty;
  empty.name = name;
  return empty;
}

bool WriteTsv(const std::string& path) {
  std::vector<SpanRecord> all = AllSpans();
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start < b.start;
            });
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : all) {
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start.time_since_epoch().count() << '\t'
        << s.end.time_since_epoch().count() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace segbench::trace
