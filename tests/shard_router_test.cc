// ShardRouter partitioning: even and uneven row splits into join windows,
// contiguous cell ranges, empty windows when windows outnumber rows, and the
// degenerate one-row map.

#include <gtest/gtest.h>

#include "shard/shard_router.h"

namespace scuba {
namespace {

TEST(ShardRouterTest, RejectsZeroShards) {
  EXPECT_FALSE(ShardRouter::Create(100, 0).ok());
}

TEST(ShardRouterTest, RejectsZeroCells) {
  EXPECT_FALSE(ShardRouter::Create(0, 2).ok());
}

TEST(ShardRouterTest, EvenSplitIsContiguousAndExhaustive) {
  ShardRouter router = ShardRouter::Create(100, 4).value();
  EXPECT_EQ(router.shard_count(), 4u);
  EXPECT_EQ(router.RowBegin(0), 0u);
  EXPECT_EQ(router.RowEnd(0), 25u);
  EXPECT_EQ(router.RowBegin(3), 75u);
  EXPECT_EQ(router.RowEnd(3), 100u);
  // Cell windows tile the grid with no gaps or overlaps.
  EXPECT_EQ(router.CellBegin(0), 0u);
  for (uint32_t s = 0; s + 1 < 4; ++s) {
    EXPECT_EQ(router.CellEnd(s), router.CellBegin(s + 1));
  }
  EXPECT_EQ(router.CellEnd(3), 100u * 100u);
}

TEST(ShardRouterTest, CellOwnershipMatchesWindows) {
  ShardRouter router = ShardRouter::Create(100, 4).value();
  // Exhaustive: every cell's owner window contains it.
  for (uint32_t cell = 0; cell < 100u * 100u; ++cell) {
    const uint32_t s = router.ShardOfCell(cell);
    EXPECT_GE(cell, router.CellBegin(s));
    EXPECT_LT(cell, router.CellEnd(s));
  }
  // Stripe-border cells land on opposite sides.
  EXPECT_EQ(router.ShardOfCell(25u * 100u - 1), 0u);
  EXPECT_EQ(router.ShardOfCell(25u * 100u), 1u);
}

TEST(ShardRouterTest, UnevenRowsSplitByIntegerDivision) {
  // 10 rows over 3 shards: [0,3) [3,6) [6,10).
  ShardRouter router = ShardRouter::Create(10, 3).value();
  EXPECT_EQ(router.RowEnd(0), 3u);
  EXPECT_EQ(router.RowEnd(1), 6u);
  EXPECT_EQ(router.RowEnd(2), 10u);
  EXPECT_FALSE(router.ZeroArea(0));
  EXPECT_FALSE(router.ZeroArea(2));
}

TEST(ShardRouterTest, MoreShardsThanRowsYieldsZeroAreaStripes) {
  // 4 rows over 8 shards: half the stripes own nothing — legal, they simply
  // never receive cells or clusters.
  ShardRouter router = ShardRouter::Create(4, 8).value();
  uint32_t zero_area = 0, rows_covered = 0;
  for (uint32_t s = 0; s < 8; ++s) {
    if (router.ZeroArea(s)) {
      ++zero_area;
      EXPECT_EQ(router.CellBegin(s), router.CellEnd(s));
    } else {
      rows_covered += router.RowEnd(s) - router.RowBegin(s);
    }
  }
  EXPECT_EQ(zero_area, 4u);
  EXPECT_EQ(rows_covered, 4u);
  // Every cell still resolves to a stripe that actually owns it.
  for (uint32_t cell = 0; cell < 16; ++cell) {
    const uint32_t s = router.ShardOfCell(cell);
    EXPECT_FALSE(router.ZeroArea(s));
    EXPECT_GE(cell, router.CellBegin(s));
    EXPECT_LT(cell, router.CellEnd(s));
  }
}

TEST(ShardRouterTest, MapSmallerThanOneStripe) {
  // A one-row map under 4 shards: a single stripe owns everything.
  ShardRouter router = ShardRouter::Create(1, 4).value();
  const uint32_t owner = router.ShardOfCell(0);
  EXPECT_FALSE(router.ZeroArea(owner));
  EXPECT_EQ(router.CellBegin(owner), 0u);
  EXPECT_EQ(router.CellEnd(owner), 1u);
  for (uint32_t s = 0; s < 4; ++s) {
    if (s != owner) EXPECT_TRUE(router.ZeroArea(s));
  }
}

}  // namespace
}  // namespace scuba
