#include "counters.h"

#include <cstdlib>

namespace segbench {
namespace {

// Numeric value following "\"key\": " in a flat JSON document; the server's
// stats document uses each counter name once.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

constexpr const char* kServerCounters[] = {
    "shed_queue_full", "shed_quota",    "deadline_expired",
    "batches",         "batch_queries", "retries",
};

double NsToUs(const std::atomic<uint64_t>& ns) {
  return static_cast<double>(ns.load(std::memory_order_relaxed)) / 1000.0;
}

double U(const std::atomic<uint64_t>& v) {
  return static_cast<double>(v.load(std::memory_order_relaxed));
}

}  // namespace

double CounterSnapshot::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& earlier) const {
  CounterSnapshot out;
  for (const auto& [name, value] : values_) {
    out.values_[name] = value - earlier.Get(name);
  }
  return out;
}

CounterSnapshot TakeSnapshot(segidx::core::IntervalIndex* index,
                             const DeviceCounters& device,
                             const std::string& server_stats_json) {
  CounterSnapshot s;
  auto set = [&s](const char* name, uint64_t v) {
    s.Set(name, static_cast<double>(v));
  };

  const segidx::storage::StorageStats& st = index->storage_stats();
  set("storage.logical_reads", st.logical_reads);
  set("storage.cache_hits", st.cache_hits);
  set("storage.physical_reads", st.physical_reads);
  set("storage.evictions", st.evictions);
  set("storage.spills", st.spills);
  set("storage.checkpoints", st.checkpoints);
  set("storage.commit_requests", st.commit_requests);
  set("storage.commit_batches", st.commit_batches);

  const segidx::rtree::TreeStats& tr = index->tree_stats();
  set("tree.searches", tr.searches);
  set("tree.inserts", tr.inserts);
  set("tree.search_node_accesses", tr.search_node_accesses);
  set("tree.insert_node_accesses", tr.insert_node_accesses);
  set("tree.splits", tr.leaf_splits + tr.nonleaf_splits);
  set("tree.spanning_placed", tr.spanning_placed);
  set("tree.cuts", tr.cuts);
  set("tree.demotions", tr.demotions);
  set("tree.promotions", tr.promotions);

  const segidx::rtree::LatchStats latch = index->tree()->latch_stats();
  set("latch.gate_read_enters", latch.gate_enters[0]);
  set("latch.gate_read_blocked", latch.gate_blocked[0]);
  set("latch.gate_read_wait_us", latch.gate_wait_us[0]);
  set("latch.gate_write_wait_us", latch.gate_wait_us[1]);
  set("latch.node_latch_wait_us", latch.latch_wait_us);

  s.Set("device.read_bytes", U(device.read_bytes));
  s.Set("device.read_us", NsToUs(device.read_ns));
  s.Set("device.write_bytes", U(device.write_bytes));
  s.Set("device.syncs", U(device.syncs));
  s.Set("device.sync_us", NsToUs(device.sync_ns));

  if (!server_stats_json.empty()) {
    for (const char* key : kServerCounters) {
      s.Set(std::string("server.") + key, JsonNumber(server_stats_json, key));
    }
  }
  return s;
}

Report BuildLayerReport(LayerInputs& in) {
  const CounterSnapshot& d = in.delta;
  // d[num] / d[den] for counter names, 0 when the window saw no `den`.
  auto per = [&d](const char* num, const char* den) {
    return Ratio(d.Get(num), d.Get(den));
  };
  const double searches = d.Get("tree.searches");
  const double inserts = d.Get("tree.inserts");
  const double ops = searches + inserts;
  const double checkpoints = d.Get("storage.checkpoints");
  const double user_bytes = inserts * static_cast<double>(kRecordBytes);
  const trace::NameSummary search = trace::Find(in.spans, "core.Search");
  const trace::NameSummary insert = trace::Find(in.spans, "core.Insert");
  const trace::NameSummary commit = trace::Find(in.spans, "core.Commit");
  auto self_per_span = [](const trace::NameSummary& s) {
    return Ratio(s.self_us, static_cast<double>(s.count));
  };
  Report r;

  // storage: buffer pool, checkpoints, and the device underneath.
  r.Add("storage.logical_reads_per_op",
        Ratio(d.Get("storage.logical_reads"), ops), "reads/op");
  r.Add("storage.hit_ratio",
        per("storage.cache_hits", "storage.logical_reads"), "ratio");
  r.Add("storage.miss_reads_per_op",
        Ratio(d.Get("storage.physical_reads"), ops), "reads/op");
  r.Add("storage.device_read_bytes", d.Get("device.read_bytes"), "B");
  r.Add("storage.device_read_us_per_op", Ratio(d.Get("device.read_us"), ops),
        "us/op");
  r.Add("storage.evictions_per_op", Ratio(d.Get("storage.evictions"), ops),
        "evictions/op");
  r.Add("storage.spills", d.Get("storage.spills"), "count");
  r.Add("storage.checkpoints_per_insert", Ratio(checkpoints, inserts),
        "ckpt/insert");
  r.Add("storage.commit_amortization",
        per("storage.commit_requests", "storage.commit_batches"), "req/batch");
  r.Add("storage.device_write_bytes_per_user_byte",
        Ratio(d.Get("device.write_bytes"), user_bytes), "B/B");
  r.Add("storage.device_syncs_per_commit",
        Ratio(d.Get("device.syncs"), checkpoints), "syncs/ckpt");
  r.Add("storage.device_sync_us_per_commit",
        Ratio(d.Get("device.sync_us"), checkpoints), "us/ckpt");

  // rtree: the shared tree code, its phase gate and node latches.
  r.Add("rtree.nodes_per_search",
        per("tree.search_node_accesses", "tree.searches"), "nodes/search");
  r.Add("rtree.us_per_node_visit",
        Ratio(search.self_us, static_cast<double>(in.traced_search_nodes)),
        "us/node");
  r.Add("rtree.nodes_per_insert",
        per("tree.insert_node_accesses", "tree.inserts"), "nodes/insert");
  r.Add("rtree.splits_per_1k_inserts",
        1000 * per("tree.splits", "tree.inserts"), "splits/1k");
  r.Add("rtree.distinct_ratio", in.distinct_ratio, "ratio");
  r.Add("rtree.gate_read_blocked_ratio",
        per("latch.gate_read_blocked", "latch.gate_read_enters"), "ratio");
  r.Add("rtree.gate_read_wait_us_per_search",
        per("latch.gate_read_wait_us", "tree.searches"), "us/search");
  r.Add("rtree.gate_write_wait_us_per_insert",
        per("latch.gate_write_wait_us", "tree.inserts"), "us/insert");
  r.Add("rtree.node_latch_wait_us_per_insert",
        per("latch.node_latch_wait_us", "tree.inserts"), "us/insert");

  // srtree: spanning records, cutting, demotion and promotion.
  r.Add("srtree.cuts_per_insert", per("tree.cuts", "tree.inserts"),
        "cuts/insert");
  r.Add("srtree.spanning_per_insert",
        per("tree.spanning_placed", "tree.inserts"), "placed/insert");
  r.Add("srtree.demotions_per_1k", 1000 * per("tree.demotions", "tree.inserts"),
        "demotions/1k");
  r.Add("srtree.promotions_per_1k",
        1000 * per("tree.promotions", "tree.inserts"), "promotions/1k");

  // skeleton: pre-construction and coalescing.
  r.Add("skeleton.build_s", in.skeleton_build_s, "s");
  r.Add("skeleton.coalesced_nodes",
        static_cast<double>(in.skeleton_coalesced_nodes), "count");

  // exec: search coalescing into SearchBatch.
  r.Add("exec.batch_fill", per("server.batch_queries", "server.batches"),
        "queries/batch");

  // core: facade self times from the traced slices, untraced commits.
  r.Add("core.search_self_us", self_per_span(search), "us");
  r.Add("core.insert_self_us", self_per_span(insert), "us");
  r.Add("core.commit_self_us", self_per_span(commit), "us");
  r.Add("core.commit_p50_us", in.commit_us.Median(), "us");
  r.Add("core.commit_p99_us", in.commit_us.Percentile(0.99), "us");

  // server: the wire path and admission control.
  r.Add("server.health_rtt_us", in.health_rtt_us.Median(), "us");
  r.Add("server.sheds",
        d.Get("server.shed_queue_full") + d.Get("server.shed_quota"), "count");
  r.Add("server.deadline_expired", d.Get("server.deadline_expired"), "count");
  r.Add("server.retries", d.Get("server.retries"), "count");
  r.Add("loadgen.late_p99_us", in.late_us.Percentile(0.99), "us");

  // Tail latencies of the untraced slices, reported without a bound.
  r.Add("tail.search_p99_us", in.search_p99_us, "us");
  r.Add("tail.insert_p99_us", in.insert_p99_us, "us");

  // Cost of tracing itself: traced vs untraced search median.
  r.Add("trace.overhead_pct",
        100 * Ratio(in.traced_search_us.Median() - in.untraced_search_p50_us,
                    in.untraced_search_p50_us),
        "%");
  return r;
}

}  // namespace segbench
