#include "rtree/node.h"

#include "common/logging.h"
#include "storage/coding.h"

namespace segidx::rtree {

namespace {

using storage::DecodeU16;
using storage::EncodeDouble;
using storage::EncodeU16;
using storage::EncodeU64;

void EncodeRect(uint8_t* dst, const Rect& r) {
  EncodeDouble(dst, r.x.lo);
  EncodeDouble(dst + 8, r.x.hi);
  EncodeDouble(dst + 16, r.y.lo);
  EncodeDouble(dst + 24, r.y.hi);
}

// The checksum a node page of `n` extent bytes carries: CRC32C over the
// header minus the checksum field, then the rest of the extent, folded to
// the 16 bits the header has room for.
uint16_t PageChecksum(const uint8_t* buf, size_t n) {
  uint32_t crc = storage::Crc32c(buf, 6);
  crc = storage::Crc32c(buf + kNodeHeaderBytes, n - kNodeHeaderBytes, crc);
  return static_cast<uint16_t>(crc ^ (crc >> 16));
}

}  // namespace

size_t Node::SerializedBytes() const {
  if (is_leaf()) {
    return kNodeHeaderBytes + records.size() * kLeafEntryBytes;
  }
  return kNodeHeaderBytes + branches.size() * kBranchEntryBytes +
         spanning.size() * kSpanningEntryBytes;
}

Rect Node::ComputeMbr() const {
  SEGIDX_CHECK_GT(entry_count(), 0u);
  bool first = true;
  Rect mbr;
  auto fold = [&first, &mbr](const Rect& r) {
    mbr = first ? r : mbr.Enclose(r);
    first = false;
  };
  if (is_leaf()) {
    for (const LeafEntry& e : records) fold(e.rect);
  } else {
    for (const BranchEntry& b : branches) fold(b.rect);
    for (const SpanningEntry& s : spanning) fold(s.rect);
  }
  return mbr;
}

int Node::FindBranch(storage::PageId child) const {
  for (size_t i = 0; i < branches.size(); ++i) {
    if (branches[i].child == child) return static_cast<int>(i);
  }
  return -1;
}

Status Node::Serialize(uint8_t* buf, size_t buf_size) const {
  const size_t need = SerializedBytes();
  if (need > buf_size) {
    return InternalError("node does not fit in its extent");
  }
  EncodeU16(buf, level);
  EncodeU16(buf + 2,
            static_cast<uint16_t>(is_leaf() ? records.size()
                                            : branches.size()));
  EncodeU16(buf + 4, static_cast<uint16_t>(spanning.size()));
  size_t off = kNodeHeaderBytes;
  if (is_leaf()) {
    for (const LeafEntry& e : records) {
      EncodeRect(buf + off, e.rect);
      EncodeU64(buf + off + 32, e.tid);
      off += kLeafEntryBytes;
    }
  } else {
    for (const BranchEntry& b : branches) {
      EncodeRect(buf + off, b.rect);
      EncodeU64(buf + off + 32, b.child.Encode());
      off += kBranchEntryBytes;
    }
    for (const SpanningEntry& s : spanning) {
      EncodeRect(buf + off, s.rect);
      EncodeU64(buf + off + 32, s.tid);
      EncodeU64(buf + off + 40, s.linked_child);
      off += kSpanningEntryBytes;
    }
  }
  // Checksum lives in the header's reserved field (docs/FILE_FORMAT.md).
  // CRC32C covers the whole extent, so zero the unused tail first — bytes
  // left over from an extent's previous life must not count.
  if (need < buf_size) std::memset(buf + need, 0, buf_size - need);
  EncodeU16(buf + 6, PageChecksum(buf, buf_size));
  return Status::OK();
}

Result<Node> Node::Deserialize(const uint8_t* buf, size_t buf_size) {
  SEGIDX_ASSIGN_OR_RETURN(const NodeView view, NodeView::Parse(buf, buf_size));
  Node node;
  node.level = view.level();
  node.records.reserve(view.record_count());
  for (size_t i = 0; i < view.record_count(); ++i) {
    node.records.push_back(view.record(i));
  }
  node.branches.reserve(view.branch_count());
  for (size_t i = 0; i < view.branch_count(); ++i) {
    node.branches.push_back(view.branch(i));
  }
  node.spanning.reserve(view.spanning_count());
  for (size_t i = 0; i < view.spanning_count(); ++i) {
    node.spanning.push_back(view.spanning(i));
  }
  return node;
}

Result<NodeView> NodeView::Parse(const uint8_t* buf, size_t buf_size) {
  if (buf_size < kNodeHeaderBytes) {
    return CorruptionError("node extent smaller than header");
  }
  // The checksum covers the full extent independently of the entry counts,
  // so damage anywhere — counts included — surfaces here first.
  if (DecodeU16(buf + 6) != PageChecksum(buf, buf_size)) {
    return CorruptionError(
        "node page CRC32C checksum mismatch (extent payload damaged)");
  }
  const uint16_t level = DecodeU16(buf);
  const uint16_t entry_count = DecodeU16(buf + 2);
  const uint16_t spanning_count = DecodeU16(buf + 4);
  size_t need = kNodeHeaderBytes;
  if (level == 0) {
    need += static_cast<size_t>(entry_count) * kLeafEntryBytes;
    if (spanning_count != 0) {
      return CorruptionError("leaf node with spanning records");
    }
  } else {
    need += static_cast<size_t>(entry_count) * kBranchEntryBytes +
            static_cast<size_t>(spanning_count) * kSpanningEntryBytes;
  }
  if (need > buf_size) {
    return CorruptionError("node entry counts exceed extent size");
  }
  return NodeView(buf, level, entry_count, spanning_count);
}

}  // namespace segidx::rtree
