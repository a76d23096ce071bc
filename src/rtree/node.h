// On-page node representation shared by the R-Tree and SR-Tree.
//
// A node is one extent (Section 2.1.2: leaf nodes are one base block and the
// node size doubles at each level above the leaves). Nodes hold:
//   * leaf nodes (level 0):   data records  (rect + tuple id);
//   * non-leaf nodes:         branches      (rect + child extent), and —
//     only in SR-Trees —      spanning records (rect + tuple id + the child
//                             whose region they span, Section 3.1.1).
//
// Serialized layout (little-endian):
//   0  level         u16   (0 = leaf)
//   2  entry_count   u16   (leaf records or branches)
//   4  spanning_count u16
//   6  reserved      u16
//   8  entries:
//        leaf record    = rect (4 doubles) + tuple id (u64)        = 40 B
//        branch         = rect (4 doubles) + child page id (u64)   = 40 B
//        spanning record= rect + tuple id (u64) + linked child(u64)= 48 B
//      Branches precede spanning records on non-leaf nodes.

#ifndef SEGIDX_RTREE_NODE_H_
#define SEGIDX_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/coding.h"
#include "storage/pager.h"

namespace segidx::rtree {

struct LeafEntry {
  Rect rect;
  TupleId tid = kInvalidTupleId;
};

struct BranchEntry {
  Rect rect;            // Region covered by the child node.
  storage::PageId child;
};

// A spanning index record: stored on a non-leaf node, linked to the branch
// whose region it spans (paper Figure 2).
struct SpanningEntry {
  Rect rect;
  TupleId tid = kInvalidTupleId;
  uint64_t linked_child = 0;  // Encoded PageId of the spanned branch's child.
};

inline constexpr size_t kNodeHeaderBytes = 8;
inline constexpr size_t kLeafEntryBytes = 40;
inline constexpr size_t kBranchEntryBytes = 40;
inline constexpr size_t kSpanningEntryBytes = 48;

// In-memory form of a node; deserialized from / serialized to a page extent.
struct Node {
  uint16_t level = 0;
  std::vector<LeafEntry> records;       // Valid when level == 0.
  std::vector<BranchEntry> branches;    // Valid when level > 0.
  std::vector<SpanningEntry> spanning;  // Valid when level > 0 (SR-Tree).

  bool is_leaf() const { return level == 0; }
  size_t entry_count() const {
    return is_leaf() ? records.size() : branches.size() + spanning.size();
  }

  // Bytes this node requires when serialized.
  size_t SerializedBytes() const;

  // Minimum bounding rectangle over every entry (records / branches /
  // spanning records). Requires at least one entry.
  Rect ComputeMbr() const;

  // Index of the branch whose child id matches, or -1.
  int FindBranch(storage::PageId child) const;

  // Serializes into `buf` (must hold at least SerializedBytes(), which must
  // be <= buf_size). Zeroes the unused tail of the extent and stamps a
  // CRC32C over all of `buf_size`, folded to 16 bits, into the header's
  // reserved field, so `buf` must span the full extent; stray bytes in the
  // tail are detected too. Deserialize is NodeView::Parse (which makes
  // every page check) plus a copy of the entries.
  Status Serialize(uint8_t* buf, size_t buf_size) const;
  static Result<Node> Deserialize(const uint8_t* buf, size_t buf_size);
};

// Read-only view of a serialized node over its extent bytes. Parse makes
// every check a page gets on read: the checksum over the whole extent, the
// entry counts fit the extent, and a leaf holds no spanning records.
// Accessors then decode single entries in place, so reading a node
// allocates nothing. The view borrows `buf`: it is valid only while the
// page stays pinned.
class NodeView {
 public:
  static Result<NodeView> Parse(const uint8_t* buf, size_t buf_size);

  uint16_t level() const { return level_; }
  bool is_leaf() const { return level_ == 0; }
  size_t record_count() const { return is_leaf() ? entry_count_ : 0; }
  size_t branch_count() const { return is_leaf() ? 0 : entry_count_; }
  size_t spanning_count() const { return spanning_count_; }

  // Entry i of its kind, in page order.
  LeafEntry record(size_t i) const {
    const uint8_t* p = buf_ + kNodeHeaderBytes + i * kLeafEntryBytes;
    return LeafEntry{DecodeRect(p), storage::DecodeU64(p + 32)};
  }
  BranchEntry branch(size_t i) const {
    const uint8_t* p = buf_ + kNodeHeaderBytes + i * kBranchEntryBytes;
    return BranchEntry{DecodeRect(p),
                       storage::PageId::Decode(storage::DecodeU64(p + 32))};
  }
  SpanningEntry spanning(size_t i) const {
    const uint8_t* p = buf_ + kNodeHeaderBytes +
                       entry_count_ * kBranchEntryBytes +
                       i * kSpanningEntryBytes;
    return SpanningEntry{DecodeRect(p), storage::DecodeU64(p + 32),
                         storage::DecodeU64(p + 40)};
  }

 private:
  NodeView(const uint8_t* buf, uint16_t level, uint16_t entry_count,
           uint16_t spanning_count)
      : buf_(buf),
        level_(level),
        entry_count_(entry_count),
        spanning_count_(spanning_count) {}

  static Rect DecodeRect(const uint8_t* p) {
    return Rect(storage::DecodeDouble(p), storage::DecodeDouble(p + 8),
                storage::DecodeDouble(p + 16), storage::DecodeDouble(p + 24));
  }

  const uint8_t* buf_;
  uint16_t level_;
  uint16_t entry_count_;     // Leaf records, or branches on a non-leaf.
  uint16_t spanning_count_;  // Always 0 on a leaf.
};

// Per-level entry capacities for a given extent byte size.
struct NodeCapacity {
  // Max data records in a leaf of `node_bytes`.
  static size_t LeafEntries(size_t node_bytes) {
    return (node_bytes - kNodeHeaderBytes) / kLeafEntryBytes;
  }
  // Max uniform entry slots in a non-leaf node, sized conservatively so any
  // mix of branches and spanning records fits.
  static size_t NonLeafSlots(size_t node_bytes) {
    return (node_bytes - kNodeHeaderBytes) / kSpanningEntryBytes;
  }
  // Max branches when no spanning records are stored (plain R-Tree).
  static size_t BranchOnlySlots(size_t node_bytes) {
    return (node_bytes - kNodeHeaderBytes) / kBranchEntryBytes;
  }
};

}  // namespace segidx::rtree

#endif  // SEGIDX_RTREE_NODE_H_
