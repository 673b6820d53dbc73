// GridIndex: uniform N x N spatial grid over a rectangular region.
//
// This single structure backs both uses in the paper:
//  * the ClusterGrid (§4.1): each moving cluster is registered in every cell
//    its circle overlaps, and cluster formation probes the cell under a new
//    location update (§3.2 step 1);
//  * the regular grid-based comparator (§6): objects and queries are hashed by
//    location and joined cell by cell.
//
// Keys are opaque uint32 ids (ClusterId / ObjectId / QueryId). The index
// remembers each key's cell placement, so Remove/Update need only the key.
// Points outside the region clamp into the border cells (generated maps are
// jittered, so entities can momentarily step just outside the nominal region).

#ifndef SCUBA_INDEX_GRID_INDEX_H_
#define SCUBA_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "geometry/circle.h"
#include "geometry/rect.h"

namespace scuba {

class GridIndex {
 public:
  /// Largest cells_per_side Create accepts. Cell ids are u32 and every
  /// empty cell still costs a vector header (24 B), so 4096^2 cells (384 MiB
  /// of headers) is already far past any useful ClusterGrid.
  static constexpr uint32_t kMaxCellsPerSide = 4096;

  /// Creates a grid of cells_per_side x cells_per_side cells covering
  /// `region`. Fails on empty regions and on cell counts outside
  /// [1, kMaxCellsPerSide].
  static Result<GridIndex> Create(const Rect& region, uint32_t cells_per_side);

  const Rect& region() const { return region_; }
  uint32_t cells_per_side() const { return cells_per_side_; }
  size_t CellCount() const { return cells_.size(); }
  /// Number of keys currently indexed.
  size_t size() const { return placements_.size(); }
  bool Contains(uint32_t key) const { return placements_.contains(key); }

  /// Monotonic counter bumped by every successful mutation (Insert, Remove,
  /// Update, Clear). Two reads returning the same value bracket a span with
  /// no cell-content change, so derived snapshots (FlattenEntries CSR) taken
  /// inside it are still valid and need not be rebuilt.
  uint64_t generation() const { return generation_; }

  /// Index of the cell containing `p` (clamped into the region).
  uint32_t CellIndexOf(Point p) const;

  /// Geometry of cell `cell` (row-major).
  Rect CellBounds(uint32_t cell) const;

  /// Indexes `key` at a point (single cell). Fails if the key is present.
  Status Insert(uint32_t key, Point p);

  /// Indexes `key` in every cell overlapping `bounds`. Fails if present or if
  /// `bounds` is empty.
  Status Insert(uint32_t key, const Rect& bounds);

  /// Indexes `key` in every cell overlapping disk `c` (exact circle-cell
  /// test, not just the bounding box). Fails if the key is present.
  Status Insert(uint32_t key, const Circle& c);

  /// Removes `key` from all its cells. NotFound if absent.
  Status Remove(uint32_t key);

  /// Remove + Insert in one call.
  Status Update(uint32_t key, Point p);
  Status Update(uint32_t key, const Rect& bounds);
  Status Update(uint32_t key, const Circle& c);

  /// Keys registered in cell `cell` (unordered).
  const std::vector<uint32_t>& CellEntries(uint32_t cell) const {
    return cells_[cell];
  }

  /// Cells `key` is registered in (insertion order, not sorted), or nullptr
  /// if the key is absent. Lets read-only consumers (the parallel join's
  /// owner-cell rule) see a key's full placement without re-deriving it from
  /// geometry.
  const std::vector<uint32_t>* CellsOf(uint32_t key) const {
    auto it = placements_.find(key);
    return it == placements_.end() ? nullptr : &it->second;
  }

  /// Keys registered in the cell containing `p`.
  const std::vector<uint32_t>& EntriesNear(Point p) const {
    return cells_[CellIndexOf(p)];
  }

  /// Snapshots every cell's entry list into one contiguous CSR slab: cell c's
  /// keys occupy entries[offsets[c] .. offsets[c+1]), in CellEntries order.
  /// `offsets` gets CellCount() + 1 values. Both vectors are cleared first;
  /// callers that reuse the same buffers every round keep their capacity, so
  /// a steady-state snapshot allocates nothing. Lets a scan walk the whole
  /// grid without chasing a per-cell heap buffer.
  void FlattenEntries(std::vector<uint32_t>* offsets,
                      std::vector<uint32_t>* entries) const;

  /// Every indexed key, ascending. Lets auditors enumerate the index without
  /// walking all cells (a key in many cells appears once).
  std::vector<uint32_t> Keys() const;

  /// Appends the exact cell set Insert(key, c) would register `key` in —
  /// bounding-box cells refined by a circle-cell intersection test, with the
  /// center cell as fallback. Pure geometry (no index state), so callers may
  /// plan registrations concurrently with readers.
  void CellsForCircle(const Circle& c, std::vector<uint32_t>* out) const;

  /// Appends every cell overlapping `r` (row-major). Pure geometry, like
  /// CellsForCircle; the cell set a rect probe (CollectInRect) reads from.
  void CellsForRect(const Rect& r, std::vector<uint32_t>* out) const;

  /// Appends (deduplicated) keys registered in any cell overlapping `r`.
  void CollectInRect(const Rect& r, std::vector<uint32_t>* out) const;

  /// Removes every key.
  void Clear();

  /// Fault injection only (the supervised engine's corrupt-state drill):
  /// drops `key` from every cell in [cell_begin, cell_end), from the cell
  /// lists and the key's placement alike, and keeps the rest of its
  /// placement. Returns how many cells were dropped.
  size_t InjectDropFromCells(uint32_t key, uint32_t cell_begin,
                             uint32_t cell_end);

  /// Analytic heap footprint: cell buffers + entries + placement map. This is
  /// the quantity Figure 9b compares across operators.
  size_t EstimateMemoryUsage() const;

 private:
  GridIndex(const Rect& region, uint32_t cells_per_side);

  uint32_t CellOf(uint32_t col, uint32_t row) const {
    return row * cells_per_side_ + col;
  }
  uint32_t ColOf(double x) const;
  uint32_t RowOf(double y) const;

  /// Cells overlapping `bounds`, appended to `out` (row-major order).
  void CellsOverlapping(const Rect& bounds, std::vector<uint32_t>* out) const;

  Status InsertIntoCells(uint32_t key, std::vector<uint32_t> cell_ids);

  Rect region_;
  uint32_t cells_per_side_ = 0;
  double cell_width_ = 0.0;
  double cell_height_ = 0.0;
  std::vector<std::vector<uint32_t>> cells_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> placements_;
  uint64_t generation_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_INDEX_GRID_INDEX_H_
