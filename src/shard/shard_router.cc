#include "shard/shard_router.h"

#include <algorithm>

#include "common/check.h"

namespace scuba {

Result<ShardRouter> ShardRouter::Create(uint32_t cells_per_side,
                                        uint32_t shards) {
  if (shards == 0) {
    return Status::InvalidArgument("shard count must be positive");
  }
  if (cells_per_side == 0) {
    return Status::InvalidArgument("cells_per_side must be positive");
  }
  return ShardRouter(cells_per_side, shards);
}

ShardRouter::ShardRouter(uint32_t cells_per_side, uint32_t shards)
    : cells_per_side_(cells_per_side), shards_(shards) {
  const uint64_t rows = cells_per_side_;
  row_begin_.reserve(shards_ + 1);
  for (uint32_t s = 0; s <= shards_; ++s) {
    row_begin_.push_back(static_cast<uint32_t>(rows * s / shards_));
  }
}

uint32_t ShardRouter::ShardOfCell(uint32_t cell) const {
  SCUBA_CHECK(cell / cells_per_side_ < cells_per_side_);
  const uint32_t row = cell / cells_per_side_;
  // The last window whose first row is <= row; empty windows share their
  // begin with the next window and are skipped by upper_bound, so the owner
  // always has row < RowEnd.
  const auto it =
      std::upper_bound(row_begin_.begin(), row_begin_.end(), row);
  return static_cast<uint32_t>(it - row_begin_.begin()) - 1;
}

}  // namespace scuba
