// Last-resort recovery: scavenge records out of a damaged index file and
// rebuild a fresh index from them.
//
// Salvage deliberately ignores the index's own structure — superblock,
// journal, and tree linkage may all be damaged. It walks the raw blocks of
// the device, attempts to decode a node page at every block-aligned extent
// size, and harvests the records (leaf entries and spanning records) of
// every page whose checksum verifies. Cut pieces of one record (SR-Tree
// cutting, paper Section 3.1.1) are merged back into one rectangle per
// tuple id; exact duplicate pieces from stale page copies are dropped.
//
// Coverage contract: every record with at least one decodable piece outside
// the damaged extents is recovered. Limits: records wholly inside damaged
// extents are lost, and a stale (freed but not yet overwritten) page can
// resurrect records deleted since it was written — salvage trades exactness
// for maximum recall. Verify the rebuilt index with CheckStructure() and
// reconcile against an external source of truth where one exists.

#ifndef SEGIDX_CORE_SALVAGE_H_
#define SEGIDX_CORE_SALVAGE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/interval_index.h"

namespace segidx::core {

struct SalvageOptions {
  // Geometry of the damaged file; base_block_size must match creation time.
  storage::PagerOptions pager;
  // Kind of the rebuilt index (must not be a skeleton kind: the rebuild
  // bulk-loads, which skeleton pre-construction replaces).
  IndexKind rebuild_kind = IndexKind::kRTree;
  rtree::PackingMethod packing = rtree::PackingMethod::kSTR;
};

struct SalvageReport {
  uint64_t blocks_scanned = 0;      // Raw base blocks examined.
  uint64_t nodes_decoded = 0;       // Pages whose checksum + decode passed.
  uint64_t leaf_nodes = 0;
  uint64_t pieces_found = 0;        // Leaf entries + spanning records seen.
  uint64_t duplicate_pieces = 0;    // Exact (tid, rect) duplicates dropped.
  uint64_t records_recovered = 0;   // Distinct tuple ids after merging.
  std::string ToString() const;
};

// Raw-scan phase: returns one (rect, tid) pair per recovered tuple id, the
// rectangle being the bounding box of every decodable piece. Never fails on
// damage — damaged extents simply contribute nothing. `report` (optional)
// receives scan statistics.
Result<std::vector<std::pair<Rect, TupleId>>> ScavengeRecords(
    const storage::BlockDevice& device, const SalvageOptions& options,
    SalvageReport* report = nullptr);

// Scavenges `source` and bulk-loads the recovered records into a fresh
// index created on `dest` (formatted from scratch). The rebuilt index is
// committed before returning; run CheckStructure() on it to verify.
Result<std::unique_ptr<IntervalIndex>> SalvageToDevice(
    const storage::BlockDevice& source,
    std::unique_ptr<storage::BlockDevice> dest, const SalvageOptions& options,
    SalvageReport* report = nullptr);

// File-to-file convenience for the CLI: salvage `source_path` into a new
// index file at `dest_path` (refusing to overwrite the source in place).
Result<SalvageReport> SalvageFile(const std::string& source_path,
                                  const std::string& dest_path,
                                  const SalvageOptions& options);

}  // namespace segidx::core

#endif  // SEGIDX_CORE_SALVAGE_H_
