#include "rtree/node.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/coding.h"

namespace segidx::rtree {
namespace {

TEST(NodeCapacityTest, PaperNodeSizes) {
  // 1 KB leaf: (1024 - 8) / 40 = 25 records.
  EXPECT_EQ(NodeCapacity::LeafEntries(1024), 25u);
  // 2 KB non-leaf with spanning records: (2048 - 8) / 48 = 42 slots.
  EXPECT_EQ(NodeCapacity::NonLeafSlots(2048), 42u);
  // 2 KB branch-only non-leaf: (2048 - 8) / 40 = 51 branches.
  EXPECT_EQ(NodeCapacity::BranchOnlySlots(2048), 51u);
}

TEST(NodeTest, LeafSerializeRoundTrip) {
  Node node;
  node.level = 0;
  for (int i = 0; i < 25; ++i) {
    LeafEntry e;
    e.rect = Rect(i, i + 1, 2.0 * i, 2.0 * i + 0.5);
    e.tid = static_cast<TupleId>(1000 + i);
    node.records.push_back(e);
  }
  std::vector<uint8_t> buf(1024, 0xcd);
  ASSERT_TRUE(node.Serialize(buf.data(), buf.size()).ok());

  auto back = Node::Deserialize(buf.data(), buf.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->level, 0);
  ASSERT_EQ(back->records.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(back->records[static_cast<size_t>(i)].rect,
              node.records[static_cast<size_t>(i)].rect);
    EXPECT_EQ(back->records[static_cast<size_t>(i)].tid,
              node.records[static_cast<size_t>(i)].tid);
  }
}

TEST(NodeTest, NonLeafSerializeRoundTripWithSpanning) {
  Node node;
  node.level = 2;
  for (int i = 0; i < 10; ++i) {
    BranchEntry b;
    b.rect = Rect(10.0 * i, 10.0 * i + 9, 0, 100);
    b.child.block = static_cast<uint32_t>(100 + i);
    b.child.size_class = 1;
    node.branches.push_back(b);
  }
  for (int i = 0; i < 5; ++i) {
    SpanningEntry s;
    s.rect = Rect(10.0 * i, 10.0 * i + 9.5, 40, 50);
    s.tid = static_cast<TupleId>(7000 + i);
    s.linked_child = node.branches[static_cast<size_t>(i)].child.Encode();
    node.spanning.push_back(s);
  }
  std::vector<uint8_t> buf(2048, 0);
  ASSERT_TRUE(node.Serialize(buf.data(), buf.size()).ok());

  auto back = Node::Deserialize(buf.data(), buf.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->level, 2);
  ASSERT_EQ(back->branches.size(), 10u);
  ASSERT_EQ(back->spanning.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back->spanning[i].rect, node.spanning[i].rect);
    EXPECT_EQ(back->spanning[i].tid, node.spanning[i].tid);
    EXPECT_EQ(back->spanning[i].linked_child, node.spanning[i].linked_child);
  }
  EXPECT_EQ(back->branches[3].child.block, 103u);
}

TEST(NodeTest, SerializeFailsWhenTooBig) {
  Node node;
  node.level = 0;
  for (int i = 0; i < 26; ++i) {
    node.records.push_back(LeafEntry{Rect(0, 1, 0, 1), 1});
  }
  std::vector<uint8_t> buf(1024);
  EXPECT_FALSE(node.Serialize(buf.data(), buf.size()).ok());
}

TEST(NodeTest, DeserializeRejectsCorruptCounts) {
  Node node;
  node.level = 0;
  node.records.push_back(LeafEntry{Rect(0, 1, 0, 1), 1});
  std::vector<uint8_t> buf(1024, 0);
  ASSERT_TRUE(node.Serialize(buf.data(), buf.size()).ok());
  // Claim far more entries than fit.
  buf[2] = 0xff;
  buf[3] = 0x7f;
  EXPECT_FALSE(Node::Deserialize(buf.data(), buf.size()).ok());
}

TEST(NodeTest, UnusedTailDamageFailsCrc32c) {
  Node node;
  node.level = 0;
  node.records.push_back(LeafEntry{Rect(0, 1, 0, 1), 42});
  std::vector<uint8_t> buf(1024, 0xee);  // Dirty extent tail.
  ASSERT_TRUE(node.Serialize(buf.data(), buf.size()).ok());
  ASSERT_TRUE(Node::Deserialize(buf.data(), buf.size()).ok());
  // The checksum covers the whole extent, not just the serialized prefix,
  // so a flipped byte far past the last entry is still caught.
  buf[1000] ^= 0xff;
  const auto damaged = Node::Deserialize(buf.data(), buf.size());
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(damaged.status().message().find("CRC32C"), std::string::npos);
}

// Pins the checksum Serialize stamps into header bytes 6-7: CRC32C over
// bytes 0-5 chained into bytes 8..end of the extent, folded to 16 bits.
// Both pages start from a dirty extent, so the zeroed tail is covered too.
// A change to the fold, the covered range or the CRC fails here even
// though every round trip would still pass.
TEST(NodeTest, SerializeStampsPinnedChecksums) {
  Node leaf;
  leaf.level = 0;
  for (int i = 0; i < 3; ++i) {
    leaf.records.push_back(LeafEntry{
        Rect(i, i + 1.5, 10.0 * i, 10.0 * i + 0.25),
        static_cast<TupleId>(100 + i)});
  }
  std::vector<uint8_t> leaf_buf(1024, 0xab);
  ASSERT_TRUE(leaf.Serialize(leaf_buf.data(), leaf_buf.size()).ok());
  EXPECT_EQ(storage::DecodeU16(leaf_buf.data() + 6), 0x6eb4);
  EXPECT_TRUE(Node::Deserialize(leaf_buf.data(), leaf_buf.size()).ok());

  Node inner;
  inner.level = 1;
  BranchEntry left;
  left.rect = Rect(0, 50, 0, 50);
  left.child.block = 2;
  left.child.size_class = 0;
  BranchEntry right;
  right.rect = Rect(50, 100, 0, 50);
  right.child.block = 3;
  right.child.size_class = 0;
  inner.branches = {left, right};
  inner.spanning.push_back(
      SpanningEntry{Rect(-1, 51, 10, 11), 7, left.child.Encode()});
  std::vector<uint8_t> inner_buf(2048, 0xcd);
  ASSERT_TRUE(inner.Serialize(inner_buf.data(), inner_buf.size()).ok());
  EXPECT_EQ(storage::DecodeU16(inner_buf.data() + 6), 0xc43b);
  EXPECT_TRUE(Node::Deserialize(inner_buf.data(), inner_buf.size()).ok());
}

TEST(NodeTest, DeserializeRejectsLeafWithSpanning) {
  std::vector<uint8_t> buf(1024, 0);
  // level = 0, entries = 0, spanning = 3.
  buf[4] = 3;
  EXPECT_FALSE(Node::Deserialize(buf.data(), buf.size()).ok());
}

TEST(NodeTest, ComputeMbrCoversEverything) {
  Node node;
  node.level = 1;
  BranchEntry b1;
  b1.rect = Rect(0, 10, 0, 10);
  b1.child.block = 1;
  BranchEntry b2;
  b2.rect = Rect(20, 30, 5, 15);
  b2.child.block = 2;
  node.branches = {b1, b2};
  SpanningEntry s;
  s.rect = Rect(0, 30, 12, 20);
  s.tid = 9;
  s.linked_child = b1.child.Encode();
  node.spanning = {s};

  const Rect mbr = node.ComputeMbr();
  EXPECT_EQ(mbr, Rect(0, 30, 0, 20));
}

TEST(NodeTest, FindBranch) {
  Node node;
  node.level = 1;
  for (uint32_t i = 0; i < 4; ++i) {
    BranchEntry b;
    b.rect = Rect(i, i + 1, 0, 1);
    b.child.block = 10 + i;
    node.branches.push_back(b);
  }
  storage::PageId present;
  present.block = 12;
  EXPECT_EQ(node.FindBranch(present), 2);
  storage::PageId absent;
  absent.block = 99;
  EXPECT_EQ(node.FindBranch(absent), -1);
}

TEST(NodeTest, EntryCountByKind) {
  Node leaf;
  leaf.level = 0;
  leaf.records.resize(3);
  EXPECT_EQ(leaf.entry_count(), 3u);

  Node inner;
  inner.level = 1;
  inner.branches.resize(4);
  inner.spanning.resize(2);
  EXPECT_EQ(inner.entry_count(), 6u);
  EXPECT_EQ(inner.SerializedBytes(), 8u + 4 * 40 + 2 * 48);
}

}  // namespace
}  // namespace segidx::rtree
