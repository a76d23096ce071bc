#include "core/salvage.h"

#include <algorithm>
#include <unordered_map>

#include "rtree/node.h"
#include "storage/block_device.h"

namespace segidx::core {

namespace {

// Plausibility screen applied after a successful checksum + decode of the
// extent at `size_class`. The node checksum is a CRC-32C folded to 16
// bits, so a damaged or misaligned extent passes it with probability
// ~2^-16 per candidate, and the scan tries up to max_size_class + 1
// candidates per block. Rejecting nodes whose decoded fields are
// impossible keeps such collisions from injecting garbage records or from
// making the scan jump over live blocks:
//   * a level-L node lives at class 0 or at min(L, max_size_class) (the
//     node-size rule of RTree::SizeClassForLevel, which the structure
//     checker enforces on live trees), so a leaf is only ever class 0;
//   * a node with no entries holds nothing to harvest, so it never
//     justifies skipping the blocks its extent would span.
bool PlausibleNode(const rtree::Node& node, uint8_t size_class,
                   uint8_t max_size_class) {
  // Far above any real tree height (fan-out >= 2 over 2^64 records).
  if (node.level > 64) return false;
  const uint8_t level_class =
      static_cast<uint8_t>(std::min<int>(node.level, max_size_class));
  if (size_class != 0 && size_class != level_class) return false;
  if (node.records.empty() && node.branches.empty() &&
      node.spanning.empty()) {
    return false;
  }
  for (const rtree::LeafEntry& e : node.records) {
    if (!e.rect.valid() || e.tid == kInvalidTupleId) return false;
  }
  for (const rtree::BranchEntry& b : node.branches) {
    if (!b.rect.valid() || !b.child.valid()) return false;
  }
  for (const rtree::SpanningEntry& s : node.spanning) {
    if (!s.rect.valid() || s.tid == kInvalidTupleId) return false;
  }
  return true;
}

}  // namespace

std::string SalvageReport::ToString() const {
  std::string out;
  out += "salvage: scanned " + std::to_string(blocks_scanned) + " blocks, ";
  out += "decoded " + std::to_string(nodes_decoded) + " node pages (" +
         std::to_string(leaf_nodes) + " leaves)\n";
  out += "salvage: " + std::to_string(pieces_found) + " record pieces, " +
         std::to_string(duplicate_pieces) + " stale duplicates dropped\n";
  out += "salvage: " + std::to_string(records_recovered) +
         " records recovered";
  return out;
}

Result<std::vector<std::pair<Rect, TupleId>>> ScavengeRecords(
    const storage::BlockDevice& device, const SalvageOptions& options,
    SalvageReport* report) {
  const uint64_t bbs = options.pager.base_block_size;
  if (bbs == 0) return InvalidArgumentError("base_block_size must be > 0");
  const uint64_t total_blocks = device.size() / bbs;

  SalvageReport local;
  SalvageReport& rep = report != nullptr ? *report : local;
  rep = SalvageReport();

  // Pieces per tuple id, deduplicating exact rectangles (the same page can
  // appear twice: once live, once as a stale copy in a freed extent).
  std::unordered_map<TupleId, std::vector<Rect>> pieces;
  auto add_piece = [&](TupleId tid, const Rect& rect) {
    ++rep.pieces_found;
    std::vector<Rect>& list = pieces[tid];
    if (std::find(list.begin(), list.end(), rect) != list.end()) {
      ++rep.duplicate_pieces;
      return;
    }
    list.push_back(rect);
  };

  // Walk every block past the two superblock slots, trying each extent size
  // in turn. The node checksum covers the whole extent, so a node decodes
  // at its true size class; the rare false match at another class is
  // screened out by PlausibleNode. Journal pages, metadata, and damaged
  // extents fail the checksum and are skipped one block at a time.
  std::vector<uint8_t> buf;
  uint64_t block = storage::kFirstDataBlock;
  while (block < total_blocks) {
    ++rep.blocks_scanned;
    uint64_t advance = 1;
    for (uint8_t sc = 0; sc <= options.pager.max_size_class; ++sc) {
      const uint64_t extent_blocks = 1ULL << sc;
      if (block + extent_blocks > total_blocks) break;
      const size_t n = static_cast<size_t>(bbs << sc);
      buf.resize(n);
      if (!device.Read(block * bbs, n, buf.data()).ok()) break;
      Result<rtree::Node> node_or = rtree::Node::Deserialize(buf.data(), n);
      if (!node_or.ok() ||
          !PlausibleNode(*node_or, sc, options.pager.max_size_class)) {
        continue;
      }
      const rtree::Node& node = *node_or;
      ++rep.nodes_decoded;
      if (node.is_leaf()) {
        ++rep.leaf_nodes;
        for (const rtree::LeafEntry& e : node.records) {
          add_piece(e.tid, e.rect);
        }
      } else {
        // Spanning records live on non-leaf nodes and may be the only
        // surviving piece of a cut record whose remnant leaves are gone.
        for (const rtree::SpanningEntry& s : node.spanning) {
          add_piece(s.tid, s.rect);
        }
      }
      advance = extent_blocks;
      break;
    }
    rep.blocks_scanned += advance - 1;
    block += advance;
  }

  // Merge the pieces of each cut record back into one rectangle (cuts
  // partition a record, so the bounding box of the surviving pieces is the
  // original rectangle when all pieces survived, and a subset of it
  // otherwise).
  std::vector<std::pair<Rect, TupleId>> records;
  records.reserve(pieces.size());
  for (const auto& [tid, list] : pieces) {
    Rect merged = list.front();
    for (size_t i = 1; i < list.size(); ++i) {
      merged = merged.Enclose(list[i]);
    }
    records.emplace_back(merged, tid);
  }
  // Deterministic output order regardless of hash-map iteration.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  rep.records_recovered = records.size();
  return records;
}

Result<std::unique_ptr<IntervalIndex>> SalvageToDevice(
    const storage::BlockDevice& source,
    std::unique_ptr<storage::BlockDevice> dest, const SalvageOptions& options,
    SalvageReport* report) {
  if (IsSkeleton(options.rebuild_kind)) {
    return InvalidArgumentError(
        "salvage rebuilds by bulk loading; pick a non-skeleton rebuild kind");
  }
  SEGIDX_ASSIGN_OR_RETURN(auto records,
                          ScavengeRecords(source, options, report));
  IndexOptions index_options;
  index_options.pager = options.pager;
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<IntervalIndex> index,
      IntervalIndex::CreateWithDevice(options.rebuild_kind, std::move(dest),
                                      index_options));
  if (!records.empty()) {
    SEGIDX_RETURN_IF_ERROR(
        index->BulkLoad(std::move(records), options.packing));
  }
  SEGIDX_RETURN_IF_ERROR(index->Commit());
  return index;
}

Result<SalvageReport> SalvageFile(const std::string& source_path,
                                  const std::string& dest_path,
                                  const SalvageOptions& options) {
  if (source_path == dest_path) {
    return InvalidArgumentError(
        "salvage writes a new file; destination must differ from source");
  }
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::FileBlockDevice> source,
      storage::FileBlockDevice::Open(source_path, /*create=*/false));
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::FileBlockDevice> dest,
      storage::FileBlockDevice::Open(dest_path, /*create=*/true));
  SEGIDX_RETURN_IF_ERROR(dest->Truncate(0));
  SalvageReport report;
  SEGIDX_ASSIGN_OR_RETURN(std::unique_ptr<IntervalIndex> index,
                          SalvageToDevice(*source, std::move(dest), options,
                                          &report));
  SEGIDX_RETURN_IF_ERROR(index->Close());
  return report;
}

}  // namespace segidx::core
