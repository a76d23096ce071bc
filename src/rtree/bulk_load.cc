#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/logging.h"

namespace segidx::rtree {

namespace {

// Maps (x, y) on a 2^order x 2^order grid to its Hilbert-curve distance
// (the classic rotate-and-flip formulation).
uint64_t HilbertDistance(uint32_t x, uint32_t y, int order) {
  uint64_t d = 0;
  for (uint32_t s = 1u << (order - 1); s > 0; s >>= 1) {
    const uint32_t rx = (x & s) > 0 ? 1 : 0;
    const uint32_t ry = (y & s) > 0 ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    // Rotate the quadrant.
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

// Sorts indices so that consecutive runs form well-shaped tiles.
void OrderForPacking(std::vector<std::pair<Rect, TupleId>>* records,
                     PackingMethod method, size_t per_node) {
  if (method == PackingMethod::kHilbert) {
    // Quantize centers onto a 2^16 grid over the data's bounding box.
    Rect bbox = records->front().first;
    for (const auto& [rect, tid] : *records) bbox = bbox.Enclose(rect);
    const Coord wx = std::max<Coord>(bbox.x.length(), 1e-12);
    const Coord wy = std::max<Coord>(bbox.y.length(), 1e-12);
    constexpr int kOrder = 16;
    constexpr double kCells = 65535.0;
    auto distance = [&](const Rect& r) {
      const auto gx = static_cast<uint32_t>(
          (r.x.center() - bbox.x.lo) / wx * kCells);
      const auto gy = static_cast<uint32_t>(
          (r.y.center() - bbox.y.lo) / wy * kCells);
      return HilbertDistance(gx, gy, kOrder);
    };
    std::sort(records->begin(), records->end(),
              [&distance](const auto& a, const auto& b) {
                return distance(a.first) < distance(b.first);
              });
    return;
  }
  if (method == PackingMethod::kLowX) {
    // [ROUS85]: plain low-X order.
    std::sort(records->begin(), records->end(),
              [](const auto& a, const auto& b) {
                if (a.first.x.lo != b.first.x.lo) {
                  return a.first.x.lo < b.first.x.lo;
                }
                return a.first.y.lo < b.first.y.lo;
              });
    return;
  }
  // STR: sort by X center, slice into vertical slabs of
  // slab_size = ceil(sqrt(n / per_node)) * per_node records, then sort
  // each slab by Y center.
  std::sort(records->begin(), records->end(),
            [](const auto& a, const auto& b) {
              return a.first.x.center() < b.first.x.center();
            });
  const size_t n = records->size();
  const size_t leaves = (n + per_node - 1) / per_node;
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaves))));
  const size_t slab_records = slabs == 0 ? n : (n + slabs - 1) / slabs;
  for (size_t start = 0; start < n; start += slab_records) {
    const size_t end = std::min(n, start + slab_records);
    std::sort(records->begin() + static_cast<ptrdiff_t>(start),
              records->begin() + static_cast<ptrdiff_t>(end),
              [](const auto& a, const auto& b) {
                return a.first.y.center() < b.first.y.center();
              });
  }
}

}  // namespace

// Friend of RTree (declared in rtree.h); `method` is the PackingMethod.
Status BulkLoadInternal(RTree* tree,
                        std::vector<std::pair<Rect, TupleId>>* records,
                        int method, double fill_fraction) {
  if (tree->record_count_ != 0 || tree->root_level_ != 0) {
    return FailedPreconditionError("BulkLoad requires an empty tree");
  }
  if (fill_fraction <= 0 || fill_fraction > 1) {
    return InvalidArgumentError("fill_fraction must be in (0, 1]");
  }
  for (const auto& [rect, tid] : *records) {
    if (!rect.valid()) {
      return InvalidArgumentError("invalid rectangle in bulk load");
    }
  }
  if (records->empty()) return Status::OK();

  const size_t leaf_per_node = std::max<size_t>(
      1, static_cast<size_t>(fill_fraction *
                             static_cast<double>(tree->LeafCapacity())));
  OrderForPacking(records, static_cast<PackingMethod>(method),
                  leaf_per_node);

  // Replace the empty root created by Create().
  SEGIDX_RETURN_IF_ERROR(tree->pager_->Free(tree->root_));
  tree->ForgetLeaf(tree->root_.block);

  // Build the leaf level.
  std::vector<BranchEntry> current;
  for (size_t start = 0; start < records->size(); start += leaf_per_node) {
    const size_t end = std::min(records->size(), start + leaf_per_node);
    Node leaf;
    leaf.level = 0;
    leaf.records.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      leaf.records.push_back(
          LeafEntry{(*records)[i].first, (*records)[i].second});
    }
    SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                            tree->pager_->Allocate(
                                tree->SizeClassForLevel(0)));
    SEGIDX_RETURN_IF_ERROR(leaf.Serialize(page.data(), page.size()));
    page.MarkDirty();
    current.push_back(BranchEntry{leaf.ComputeMbr(), page.id()});
    tree->leaf_mod_counts_[page.id().block] = 0;
  }

  // Build non-leaf levels until one node remains; the packing order of the
  // children is preserved, so tiles stay contiguous.
  int level = 1;
  while (current.size() > 1) {
    const size_t per_node = std::max<size_t>(
        2, static_cast<size_t>(
               fill_fraction *
               static_cast<double>(tree->BranchPlanningCapacity(level))));
    std::vector<BranchEntry> next;
    for (size_t start = 0; start < current.size(); start += per_node) {
      const size_t end = std::min(current.size(), start + per_node);
      Node node;
      node.level = static_cast<uint16_t>(level);
      node.branches.assign(current.begin() + static_cast<ptrdiff_t>(start),
                           current.begin() + static_cast<ptrdiff_t>(end));
      SEGIDX_ASSIGN_OR_RETURN(storage::PageHandle page,
                              tree->pager_->Allocate(
                                  tree->SizeClassForLevel(level)));
      SEGIDX_RETURN_IF_ERROR(node.Serialize(page.data(), page.size()));
      page.MarkDirty();
      next.push_back(BranchEntry{node.ComputeMbr(), page.id()});
    }
    current = std::move(next);
    ++level;
  }

  if (level == 1) {
    // A single leaf holds everything; it is the root.
    tree->root_ = current[0].child;
    tree->root_level_ = 0;
  } else {
    tree->root_ = current[0].child;
    tree->root_level_ = level - 1;
  }
  tree->root_region_ = current[0].rect;
  tree->root_region_valid_ = true;
  tree->record_count_ = records->size();
  return Status::OK();
}

Status BulkLoad(RTree* tree, std::vector<std::pair<Rect, TupleId>> records,
                PackingMethod method, double fill_fraction) {
  return BulkLoadInternal(tree, &records, static_cast<int>(method),
                          fill_fraction);
}

}  // namespace segidx::rtree
