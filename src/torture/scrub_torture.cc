#include "torture/scrub_torture.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/salvage.h"
#include "storage/block_device.h"

namespace segidx::torture {

namespace {

using core::IntervalIndex;
using storage::MemoryBlockDevice;

std::vector<std::pair<Rect, TupleId>> MakeRecords(uint64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 1000.0);
  std::uniform_real_distribution<double> length(0.5, 40.0);
  std::uniform_real_distribution<double> ypos(0.0, 1000.0);
  std::vector<std::pair<Rect, TupleId>> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double s = start(rng);
    records.emplace_back(
        Rect(Interval(s, s + length(rng)), Interval::Point(ypos(rng))),
        static_cast<TupleId>(i + 1));
  }
  return records;
}

// One reachable node extent of the baseline tree, with the record pieces
// (leaf entries and spanning records) stored directly on it.
struct NodeInfo {
  storage::PageId id;
  int parent = -1;                // Index into the nodes vector; -1 = root.
  std::vector<size_t> children;   // Indices into the nodes vector.
  std::vector<TupleId> piece_tids;
};

// Walks the pristine tree into a flat node list (index 0 = root).
Result<std::vector<NodeInfo>> MapTree(IntervalIndex* index) {
  std::vector<NodeInfo> nodes;
  struct Item {
    storage::PageId id;
    int parent;
  };
  std::vector<Item> stack;
  stack.push_back({index->tree()->root(), -1});
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const size_t me = nodes.size();
    nodes.push_back({item.id, item.parent, {}, {}});
    if (item.parent >= 0) nodes[item.parent].children.push_back(me);
    SEGIDX_ASSIGN_OR_RETURN(rtree::Node node,
                            index->tree()->ReadNode(item.id));
    if (node.is_leaf()) {
      for (const rtree::LeafEntry& e : node.records) {
        nodes[me].piece_tids.push_back(e.tid);
      }
      continue;
    }
    for (const rtree::SpanningEntry& s : node.spanning) {
      nodes[me].piece_tids.push_back(s.tid);
    }
    for (const rtree::BranchEntry& b : node.branches) {
      stack.push_back({b.child, static_cast<int>(me)});
    }
  }
  return nodes;
}

bool HasChosenAncestorOrDescendant(const std::vector<NodeInfo>& nodes,
                                   const std::vector<char>& chosen,
                                   size_t candidate) {
  for (int p = nodes[candidate].parent; p >= 0; p = nodes[p].parent) {
    if (chosen[p]) return true;
  }
  std::vector<size_t> stack(nodes[candidate].children.begin(),
                            nodes[candidate].children.end());
  while (!stack.empty()) {
    const size_t n = stack.back();
    stack.pop_back();
    if (chosen[n]) return true;
    stack.insert(stack.end(), nodes[n].children.begin(),
                 nodes[n].children.end());
  }
  return false;
}

std::string Describe(uint64_t round, const std::string& what) {
  return "round " + std::to_string(round) + ": " + what;
}

std::string BlockList(const std::vector<uint32_t>& blocks) {
  std::string out = "[";
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(blocks[i]);
  }
  return out + "]";
}

}  // namespace

Result<ScrubTortureReport> RunScrubTorture(
    const ScrubTortureOptions& options) {
  if (options.records == 0 || options.rounds == 0 ||
      options.max_corrupt_per_round == 0) {
    return InvalidArgumentError(
        "scrub torture needs records, rounds, and max_corrupt_per_round > 0");
  }
  const std::vector<std::pair<Rect, TupleId>> records =
      MakeRecords(options.records, options.seed);
  const Rect everything(Interval(-1e12, 1e12), Interval(-1e12, 1e12));

  // --- baseline: build the index and snapshot its image -------------------
  std::vector<uint8_t> baseline_image;
  {
    auto device = std::make_unique<MemoryBlockDevice>();
    MemoryBlockDevice* dev = device.get();
    SEGIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<IntervalIndex> index,
        IntervalIndex::CreateWithDevice(options.kind, std::move(device),
                                        options.index));
    for (size_t i = 0; i < records.size(); ++i) {
      SEGIDX_RETURN_IF_ERROR(
          index->Insert(records[i].first, records[i].second));
      // Periodic checkpoints age some extents into the free lists, so the
      // media pass of every later scrub has real work to do.
      if ((i + 1) % 100 == 0) SEGIDX_RETURN_IF_ERROR(index->Commit());
    }
    // Two commits in a row: journal replay rewrites every page image in the
    // newest checkpoint's journal back to the device on open, silently
    // healing corruption under it. An empty final checkpoint leaves every
    // node extent outside the replay window so injected damage stays
    // visible to scrub.
    SEGIDX_RETURN_IF_ERROR(index->Commit());
    SEGIDX_RETURN_IF_ERROR(index->Commit());
    SEGIDX_RETURN_IF_ERROR(index->Close());
    baseline_image = dev->Snapshot();
  }

  // Map the pristine tree: reachable extents, parentage, and which records
  // have pieces where.
  std::vector<NodeInfo> nodes;
  {
    auto opened = IntervalIndex::OpenFromDevice(
        std::make_unique<MemoryBlockDevice>(baseline_image), options.index);
    SEGIDX_RETURN_IF_ERROR(opened.status());
    SEGIDX_ASSIGN_OR_RETURN(nodes, MapTree(opened.value().get()));
  }
  std::unordered_map<TupleId, uint64_t> piece_counts;
  for (const NodeInfo& n : nodes) {
    for (TupleId tid : n.piece_tids) ++piece_counts[tid];
  }

  const uint32_t bbs = options.index.pager.base_block_size;
  std::mt19937 rng(options.seed ^ 0x5c20bu);
  ScrubTortureReport report;

  for (uint64_t round = 0; round < options.rounds; ++round) {
    if (options.log_progress && options.rounds >= 10 &&
        round % (options.rounds / 10) == 0) {
      std::fprintf(stderr, "scrub-torture: round %llu/%llu\n",
                   static_cast<unsigned long long>(round),
                   static_cast<unsigned long long>(options.rounds));
    }
    // --- choose an ancestor-free set of extents to corrupt ----------------
    const uint64_t want =
        1 + rng() % options.max_corrupt_per_round;
    std::vector<size_t> order(nodes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<char> chosen(nodes.size(), 0);
    std::vector<size_t> picks;
    for (size_t candidate : order) {
      if (picks.size() >= want) break;
      if (HasChosenAncestorOrDescendant(nodes, chosen, candidate)) continue;
      chosen[candidate] = 1;
      picks.push_back(candidate);
    }
    std::vector<uint32_t> picked_blocks;
    for (size_t p : picks) picked_blocks.push_back(nodes[p].id.block);
    std::sort(picked_blocks.begin(), picked_blocks.end());

    // Expected outcomes. Search loses every record whose pieces all sit in
    // the damaged *subtrees*; salvage only loses records whose pieces all
    // sit on the damaged extents *themselves*.
    std::unordered_map<TupleId, uint64_t> subtree_pieces;
    std::unordered_map<TupleId, uint64_t> extent_pieces;
    for (size_t p : picks) {
      for (TupleId tid : nodes[p].piece_tids) ++extent_pieces[tid];
      std::vector<size_t> stack{p};
      while (!stack.empty()) {
        const size_t n = stack.back();
        stack.pop_back();
        for (TupleId tid : nodes[n].piece_tids) ++subtree_pieces[tid];
        stack.insert(stack.end(), nodes[n].children.begin(),
                     nodes[n].children.end());
      }
    }
    std::vector<TupleId> expect_search;
    std::unordered_set<TupleId> expect_salvage;
    for (const auto& [tid, total] : piece_counts) {
      auto sub = subtree_pieces.find(tid);
      if (sub == subtree_pieces.end() || sub->second < total) {
        expect_search.push_back(tid);
      }
      auto ext = extent_pieces.find(tid);
      if (ext == extent_pieces.end() || ext->second < total) {
        expect_salvage.insert(tid);
      }
    }
    std::sort(expect_search.begin(), expect_search.end());

    // --- corrupt a copy of the image --------------------------------------
    std::vector<uint8_t> image = baseline_image;
    for (size_t p : picks) {
      const uint64_t off = static_cast<uint64_t>(nodes[p].id.block) * bbs;
      const size_t extent_bytes =
          static_cast<size_t>(bbs) << nodes[p].id.size_class;
      const size_t span = std::min<size_t>(256, extent_bytes);
      for (size_t i = 0; i < span; ++i) image[off + i] ^= 0xa5;
    }
    ++report.rounds_run;
    report.pages_corrupted += picks.size();

    auto opened = IntervalIndex::OpenFromDevice(
        std::make_unique<MemoryBlockDevice>(image), options.index);
    if (!opened.ok()) {
      report.failures.push_back(Describe(
          round, "open failed (content damage must not block open): " +
                     opened.status().ToString()));
      continue;
    }
    std::unique_ptr<IntervalIndex> index = std::move(opened).value();

    // --- scrub must find exactly the corrupted extents --------------------
    auto scrubbed = index->Scrub();
    if (!scrubbed.ok()) {
      report.failures.push_back(
          Describe(round, "scrub failed: " + scrubbed.status().ToString()));
      continue;
    }
    const storage::ScrubReport& scrub = scrubbed.value();
    std::vector<uint32_t> defect_blocks;
    for (const storage::ScrubDefect& d : scrub.defects) {
      if (d.page.valid()) defect_blocks.push_back(d.page.block);
    }
    std::sort(defect_blocks.begin(), defect_blocks.end());
    if (!scrub.completed || defect_blocks != picked_blocks) {
      report.failures.push_back(Describe(
          round, "scrub found " + BlockList(defect_blocks) +
                     ", corrupted " + BlockList(picked_blocks)));
      continue;
    }
    if (index->pager()->quarantined_count() != picks.size()) {
      report.failures.push_back(
          Describe(round, "scrub quarantined " +
                              std::to_string(index->pager()->quarantined_count()) +
                              " pages, corrupted " +
                              std::to_string(picks.size())));
      continue;
    }

    // --- partial search: exact skip set, exact surviving records ----------
    rtree::SearchOptions search_options;
    search_options.allow_partial = true;
    std::vector<rtree::SearchHit> hits;
    rtree::SearchOutcome outcome;
    const Status searched =
        index->Search(everything, search_options, &hits, &outcome);
    if (!searched.ok()) {
      report.failures.push_back(
          Describe(round, "partial search failed: " + searched.ToString()));
      continue;
    }
    std::vector<uint32_t> skipped_blocks;
    for (const storage::PageId& id : outcome.skipped_subtrees) {
      skipped_blocks.push_back(id.block);
    }
    std::sort(skipped_blocks.begin(), skipped_blocks.end());
    if (!outcome.partial || skipped_blocks != picked_blocks) {
      report.failures.push_back(Describe(
          round, "search skipped " + BlockList(skipped_blocks) +
                     ", corrupted " + BlockList(picked_blocks)));
      continue;
    }
    std::vector<TupleId> got;
    {
      std::unordered_set<TupleId> seen;
      for (const rtree::SearchHit& h : hits) {
        if (seen.insert(h.tid).second) got.push_back(h.tid);
      }
    }
    std::sort(got.begin(), got.end());
    if (got != expect_search) {
      report.failures.push_back(Describe(
          round, "partial search returned " + std::to_string(got.size()) +
                     " records, expected " +
                     std::to_string(expect_search.size())));
      continue;
    }
    report.records_skipped += piece_counts.size() - expect_search.size();
    if (index->pager()->degraded()) {
      report.failures.push_back(Describe(
          round, "pager went device-degraded over per-page content damage"));
      continue;
    }

    // --- salvage: every record with a piece outside the damaged extents ---
    core::SalvageOptions salvage_options;
    salvage_options.pager = options.index.pager;
    core::SalvageReport salvage_report;
    const MemoryBlockDevice damaged(image);
    auto rebuilt = core::SalvageToDevice(
        damaged, std::make_unique<MemoryBlockDevice>(), salvage_options,
        &salvage_report);
    if (!rebuilt.ok()) {
      report.failures.push_back(
          Describe(round, "salvage failed: " + rebuilt.status().ToString()));
      continue;
    }
    const Status check = rebuilt.value()->CheckInvariants();
    if (!check.ok()) {
      report.failures.push_back(Describe(
          round, "salvaged index fails structure check: " + check.ToString()));
      continue;
    }
    std::vector<TupleId> salvaged;
    {
      const Status s =
          rebuilt.value()->SearchTuples(everything, &salvaged);
      if (!s.ok()) {
        report.failures.push_back(Describe(
            round, "salvaged index search failed: " + s.ToString()));
        continue;
      }
    }
    // Stale page copies may legitimately resurrect extra pieces, so the
    // expected set is a floor, not an exact match.
    std::unordered_set<TupleId> salvaged_set(salvaged.begin(),
                                             salvaged.end());
    uint64_t missing = 0;
    for (TupleId tid : expect_salvage) {
      if (salvaged_set.find(tid) == salvaged_set.end()) ++missing;
    }
    if (missing != 0) {
      report.failures.push_back(Describe(
          round, "salvage lost " + std::to_string(missing) +
                     " records that had pieces outside the damaged extents"));
      continue;
    }
    report.records_salvaged += salvaged_set.size();
  }
  return report;
}

}  // namespace segidx::torture
