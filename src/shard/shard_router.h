// ShardRouter: contiguous row-range partitioning of the ClusterGrid's cell
// space into the engine's N join windows (docs/ARCHITECTURE.md §11).
//
// Windows are whole grid rows: cells are row-major, so a window is one
// contiguous cell range [CellBegin(s), CellEnd(s)), which is what lets each
// window's join scan a plain index range with no ownership test per cell.
//
// Rows split as evenly as integer division allows: window s owns rows
// [s*rows/shards, (s+1)*rows/shards). With more windows than rows, the excess
// windows are empty — legal, they simply own no cells.

#ifndef SCUBA_SHARD_SHARD_ROUTER_H_
#define SCUBA_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace scuba {

class ShardRouter {
 public:
  /// Builds a router over a grid of `cells_per_side` x `cells_per_side`
  /// cells with `shards` row windows. Fails on zero cells or zero shards.
  static Result<ShardRouter> Create(uint32_t cells_per_side, uint32_t shards);

  uint32_t shard_count() const { return shards_; }
  uint32_t cells_per_side() const { return cells_per_side_; }

  /// Row range [RowBegin, RowEnd) owned by `shard`.
  uint32_t RowBegin(uint32_t shard) const { return row_begin_[shard]; }
  uint32_t RowEnd(uint32_t shard) const { return row_begin_[shard + 1]; }

  /// Contiguous cell range [CellBegin, CellEnd) owned by `shard` (rows are
  /// row-major, so a row range is one cell interval).
  uint32_t CellBegin(uint32_t shard) const {
    return row_begin_[shard] * cells_per_side_;
  }
  uint32_t CellEnd(uint32_t shard) const {
    return row_begin_[shard + 1] * cells_per_side_;
  }

  /// True when the window owns no rows (shards > rows).
  bool ZeroArea(uint32_t shard) const {
    return row_begin_[shard] == row_begin_[shard + 1];
  }

  /// Owning window of a cell index (must be < cells_per_side^2).
  uint32_t ShardOfCell(uint32_t cell) const;

 private:
  ShardRouter(uint32_t cells_per_side, uint32_t shards);

  uint32_t cells_per_side_ = 1;
  uint32_t shards_ = 1;
  /// shards_ + 1 entries; window s owns rows [row_begin_[s], row_begin_[s+1]).
  std::vector<uint32_t> row_begin_;
};

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARD_ROUTER_H_
