#include "index/grid_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scuba {
namespace {

GridIndex MakeGrid(double extent = 100.0, uint32_t cells = 10) {
  Result<GridIndex> g = GridIndex::Create(Rect{0, 0, extent, extent}, cells);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(GridIndexTest, CreateRejectsBadArgs) {
  EXPECT_TRUE(
      GridIndex::Create(Rect{0, 0, 10, 10}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      GridIndex::Create(Rect{10, 0, 0, 10}, 5).status().IsInvalidArgument());
  EXPECT_TRUE(
      GridIndex::Create(Rect{0, 0, 0, 10}, 5).status().IsInvalidArgument());
}

TEST(GridIndexTest, CreateCapsCellsPerSide) {
  // Every empty cell costs a vector header, so a typo like 100000 must be
  // an error, not a multi-gigabyte allocation.
  const Rect region{0, 0, 10, 10};
  EXPECT_TRUE(GridIndex::Create(region, GridIndex::kMaxCellsPerSide + 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GridIndex::Create(region, 100000).status().IsInvalidArgument());
  EXPECT_TRUE(
      GridIndex::Create(region, UINT32_MAX).status().IsInvalidArgument());
  EXPECT_TRUE(GridIndex::Create(region, 1).ok());
}

TEST(GridIndexTest, NonFinitePointsClampIntoTheGrid) {
  GridIndex g = MakeGrid(100.0, 10);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(g.CellIndexOf({inf, inf}), 99u);
  EXPECT_EQ(g.CellIndexOf({-inf, 5}), 0u);
  EXPECT_EQ(g.CellIndexOf({nan, nan}), 0u);
  EXPECT_EQ(g.CellIndexOf({1e300, 5}), 9u);
}

TEST(GridIndexTest, InjectDropFromCellsKeepsTheRestOfThePlacement) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(7, Rect{5, 5, 25, 25}).ok());  // cells 0-2, 10-12, 20-22
  EXPECT_EQ(g.InjectDropFromCells(7, 10, 20), 3u);
  std::vector<uint32_t> cells = *g.CellsOf(7);
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(cells, (std::vector<uint32_t>{0, 1, 2, 20, 21, 22}));
  for (uint32_t cell : {10u, 11u, 12u}) {
    EXPECT_TRUE(g.CellEntries(cell).empty()) << cell;
  }
  EXPECT_EQ(g.CellEntries(21), std::vector<uint32_t>{7});
  EXPECT_EQ(g.InjectDropFromCells(7, 10, 20), 0u);  // nothing left there
  EXPECT_EQ(g.InjectDropFromCells(99, 0, 100), 0u);  // unknown key
  ASSERT_TRUE(g.Remove(7).ok());  // the reduced placement removes cleanly
  EXPECT_TRUE(g.CellEntries(21).empty());
}

TEST(GridIndexTest, Geometry) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellCount(), 100u);
  EXPECT_EQ(g.cells_per_side(), 10u);
  EXPECT_EQ(g.CellIndexOf({5, 5}), 0u);
  EXPECT_EQ(g.CellIndexOf({15, 5}), 1u);
  EXPECT_EQ(g.CellIndexOf({5, 15}), 10u);
  EXPECT_EQ(g.CellIndexOf({95, 95}), 99u);
}

TEST(GridIndexTest, OutOfRegionPointsClampToBorder) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellIndexOf({-50, -50}), 0u);
  EXPECT_EQ(g.CellIndexOf({150, 150}), 99u);
  EXPECT_EQ(g.CellIndexOf({50, -50}), 5u);
  EXPECT_EQ(g.CellIndexOf({100.0, 100.0}), 99u);  // max boundary
}

TEST(GridIndexTest, CellBounds) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellBounds(0), (Rect{0, 0, 10, 10}));
  EXPECT_EQ(g.CellBounds(11), (Rect{10, 10, 20, 20}));
  EXPECT_EQ(g.CellBounds(99), (Rect{90, 90, 100, 100}));
}

TEST(GridIndexTest, InsertPointAndLookup) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(7, Point{15, 25}).ok());
  EXPECT_TRUE(g.Contains(7));
  EXPECT_EQ(g.size(), 1u);
  const std::vector<uint32_t>& entries = g.EntriesNear({15, 25});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], 7u);
  EXPECT_TRUE(g.EntriesNear({95, 95}).empty());
}

TEST(GridIndexTest, DuplicateInsertFails) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  EXPECT_TRUE(g.Insert(1, Point{50, 50}).IsAlreadyExists());
}

TEST(GridIndexTest, InsertRectSpansCells) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(3, Rect{5, 5, 25, 15}).ok());
  // Overlaps cells (0,0),(1,0),(2,0),(0,1),(1,1),(2,1).
  EXPECT_EQ(g.EntriesNear({6, 6}).size(), 1u);
  EXPECT_EQ(g.EntriesNear({24, 14}).size(), 1u);
  EXPECT_TRUE(g.EntriesNear({6, 26}).empty());
}

TEST(GridIndexTest, InsertEmptyRectFails) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Insert(3, Rect{5, 5, 4, 4}).IsInvalidArgument());
}

TEST(GridIndexTest, InsertCircleRefinesCorners) {
  GridIndex g = MakeGrid(100.0, 10);
  // Circle centered on a cell-corner junction with radius that reaches the
  // 4 adjacent cells but NOT the diagonal cells' interiors beyond... use a
  // circle at (50,50), r=12: bounding box covers cells 3..6 in each axis
  // (x from 38 to 62), 9 candidate cells; corner cells like (30..40,30..40)
  // are outside the disk.
  ASSERT_TRUE(g.Insert(9, Circle{{50, 50}, 12}).ok());
  EXPECT_EQ(g.EntriesNear({45, 45}).size(), 1u);  // cell containing center
  EXPECT_EQ(g.EntriesNear({55, 45}).size(), 1u);
  EXPECT_EQ(g.EntriesNear({45, 39}).size(), 1u);  // below: disk reaches 38
  // Diagonal cell [30,40)x[30,40): closest point (40,40) is distance
  // sqrt(200) ~ 14.1 > 12 from the center: must not be registered.
  EXPECT_TRUE(g.EntriesNear({35, 35}).empty());
}

TEST(GridIndexTest, ZeroRadiusCircleActsAsPoint) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(4, Circle{{33, 44}, 0.0}).ok());
  EXPECT_EQ(g.EntriesNear({33, 44}).size(), 1u);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GridIndexTest, RemoveErasesEverywhere) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(5, Rect{5, 5, 35, 35}).ok());
  ASSERT_TRUE(g.Remove(5).ok());
  EXPECT_FALSE(g.Contains(5));
  EXPECT_EQ(g.size(), 0u);
  for (uint32_t c = 0; c < g.CellCount(); ++c) {
    EXPECT_TRUE(g.CellEntries(c).empty());
  }
}

TEST(GridIndexTest, RemoveMissingIsNotFound) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Remove(42).IsNotFound());
}

TEST(GridIndexTest, UpdateMoves) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  ASSERT_TRUE(g.Update(1, Point{95, 95}).ok());
  EXPECT_TRUE(g.EntriesNear({5, 5}).empty());
  EXPECT_EQ(g.EntriesNear({95, 95}).size(), 1u);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GridIndexTest, UpdateMissingIsNotFound) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Update(1, Point{5, 5}).IsNotFound());
}

TEST(GridIndexTest, UpdateWithEmptyRectLeavesKeyIntact) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  EXPECT_TRUE(g.Update(1, Rect{9, 9, 2, 2}).IsInvalidArgument());
  // The failed update must not have stranded the key half-removed.
  EXPECT_TRUE(g.Contains(1));
  EXPECT_EQ(g.EntriesNear({5, 5}).size(), 1u);
}

TEST(GridIndexTest, CollectInRectDedups) {
  GridIndex g = MakeGrid(100.0, 10);
  // Key 8 spans 4 cells; collecting over all of them must return it once.
  ASSERT_TRUE(g.Insert(8, Rect{5, 5, 25, 25}).ok());
  ASSERT_TRUE(g.Insert(9, Point{50, 50}).ok());
  std::vector<uint32_t> out;
  g.CollectInRect(Rect{0, 0, 100, 100}, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{8, 9}));
}

TEST(GridIndexTest, CollectInEmptyRectIsNoop) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  std::vector<uint32_t> out;
  g.CollectInRect(Rect{5, 5, 4, 4}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GridIndexTest, ClearRemovesEverything) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  ASSERT_TRUE(g.Insert(2, Point{15, 15}).ok());
  g.Clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_FALSE(g.Contains(1));
  // Reinsert works after clear.
  EXPECT_TRUE(g.Insert(1, Point{5, 5}).ok());
}

TEST(GridIndexTest, MemoryGrowsWithEntriesAndCells) {
  GridIndex small = MakeGrid(100.0, 10);
  GridIndex big = MakeGrid(100.0, 100);
  EXPECT_GT(big.EstimateMemoryUsage(), small.EstimateMemoryUsage());
  size_t before = small.EstimateMemoryUsage();
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(small.Insert(i, Point{static_cast<double>(i), 50.0}).ok());
  }
  EXPECT_GT(small.EstimateMemoryUsage(), before);
}

// Property: the set of keys found via cells overlapping a probe rect equals a
// brute-force filter over tracked placements.
class GridIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridIndexPropertyTest, CollectMatchesBruteForce) {
  Rng rng(GetParam());
  GridIndex g = MakeGrid(1000.0, 20);
  struct Entry {
    uint32_t key;
    Rect bounds;
  };
  std::vector<Entry> entries;
  for (uint32_t k = 0; k < 200; ++k) {
    double x = rng.NextDouble(0, 950);
    double y = rng.NextDouble(0, 950);
    Rect r{x, y, x + rng.NextDouble(0.1, 50), y + rng.NextDouble(0.1, 50)};
    ASSERT_TRUE(g.Insert(k, r).ok());
    entries.push_back({k, r});
  }
  for (int probe = 0; probe < 50; ++probe) {
    double x = rng.NextDouble(0, 900);
    double y = rng.NextDouble(0, 900);
    Rect pr{x, y, x + rng.NextDouble(1, 100), y + rng.NextDouble(1, 100)};
    std::vector<uint32_t> got;
    g.CollectInRect(pr, &got);
    std::set<uint32_t> got_set(got.begin(), got.end());
    // Everything whose bounds intersect the probe must be found (the grid may
    // legitimately return extras that share cells without true overlap).
    for (const Entry& e : entries) {
      if (Intersects(e.bounds, pr)) {
        EXPECT_TRUE(got_set.count(e.key))
            << "missing key " << e.key << " for probe";
      }
    }
    // And no duplicates.
    EXPECT_EQ(got.size(), got_set.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexPropertyTest,
                         ::testing::Values(101, 202, 303));

// Differential: random Insert/Update/Remove sequences over point, rect and
// circle keys against a map model (key -> cell set). The model's cells come
// from the grid's pure geometry (CellIndexOf, CellsForRect, CellsForCircle),
// so this checks the mutation logic: Update's cell diff, Remove and the
// placements. After every step each placement equals the model and ascends,
// every cell lists exactly the model's inverse, and a failed Update changes
// no cell and no placement.
class GridIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridIndexDifferentialTest, MatchesMapModel) {
  Rng rng(GetParam());
  GridIndex g = MakeGrid(100.0, 10);
  std::map<uint32_t, std::set<uint32_t>> model;
  constexpr uint32_t kKeys = 24;

  // A random shape, the cells the grid places it in, and a mutation that
  // applies it (Insert or Update) to `key`.
  struct Shape {
    int kind = 0;  // 0 point, 1 rect, 2 circle
    Point p;
    Rect r;
    Circle c;
  };
  auto random_shape = [&]() {
    Shape s;
    s.kind = static_cast<int>(rng.NextBounded(3));
    const double x = rng.NextDouble(-10, 110);
    const double y = rng.NextDouble(-10, 110);
    s.p = Point{x, y};
    s.r = Rect{x, y, x + rng.NextDouble(0, 40), y + rng.NextDouble(0, 40)};
    s.c = Circle{{x, y}, rng.NextDouble(0, 25)};
    return s;
  };
  auto cells_of = [&](const Shape& s) {
    std::vector<uint32_t> cells;
    if (s.kind == 0) cells.push_back(g.CellIndexOf(s.p));
    if (s.kind == 1) g.CellsForRect(s.r, &cells);
    if (s.kind == 2) g.CellsForCircle(s.c, &cells);
    return std::set<uint32_t>(cells.begin(), cells.end());
  };
  auto update = [&](uint32_t key, const Shape& s) {
    if (s.kind == 0) return g.Update(key, s.p);
    if (s.kind == 1) return g.Update(key, s.r);
    return g.Update(key, s.c);
  };
  auto insert = [&](uint32_t key, const Shape& s) {
    if (s.kind == 0) return g.Insert(key, s.p);
    if (s.kind == 1) return g.Insert(key, s.r);
    return g.Insert(key, s.c);
  };
  auto all_entries = [&]() {
    std::vector<std::vector<uint32_t>> cells;
    for (uint32_t c = 0; c < g.CellCount(); ++c) {
      cells.push_back(g.CellEntries(c));
    }
    return cells;
  };
  auto all_placements = [&]() {
    std::map<uint32_t, std::vector<uint32_t>> placed;
    for (uint32_t key : g.Keys()) placed[key] = *g.CellsOf(key);
    return placed;
  };
  auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_EQ(g.size(), model.size());
    std::vector<std::set<uint32_t>> inverse(g.CellCount());
    for (const auto& [key, cells] : model) {
      const std::vector<uint32_t>* placed = g.CellsOf(key);
      ASSERT_NE(placed, nullptr) << "key " << key;
      EXPECT_EQ(*placed, std::vector<uint32_t>(cells.begin(), cells.end()))
          << "key " << key;
      EXPECT_TRUE(std::is_sorted(placed->begin(), placed->end()));
      for (uint32_t cell : cells) inverse[cell].insert(key);
    }
    for (uint32_t c = 0; c < g.CellCount(); ++c) {
      std::vector<uint32_t> entries = g.CellEntries(c);
      std::sort(entries.begin(), entries.end());
      EXPECT_EQ(std::adjacent_find(entries.begin(), entries.end()),
                entries.end())
          << "cell " << c << " lists a key twice";
      EXPECT_EQ(entries,
                std::vector<uint32_t>(inverse[c].begin(), inverse[c].end()))
          << "cell " << c;
    }
  };

  for (int step = 0; step < 600; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(kKeys));
    const bool present = model.contains(key);
    const double action = rng.NextDouble();
    if (!present && action < 0.6) {
      const Shape s = random_shape();
      if (s.kind == 1 && s.r.Empty()) continue;
      ASSERT_TRUE(insert(key, s).ok());
      model[key] = cells_of(s);
    } else if (!present || action < 0.08) {
      // A failed Update: an absent key (NotFound) or an empty rect
      // (InvalidArgument). Nothing may change.
      const auto entries = all_entries();
      const auto placements = all_placements();
      if (present) {
        EXPECT_TRUE(g.Update(key, Rect{50, 50, 40, 40}).IsInvalidArgument());
      } else {
        const Shape s = random_shape();
        if (s.kind == 1 && s.r.Empty()) continue;
        EXPECT_TRUE(update(key, s).IsNotFound());
      }
      EXPECT_EQ(all_entries(), entries);
      EXPECT_EQ(all_placements(), placements);
    } else if (action < 0.85) {
      const Shape s = random_shape();
      if (s.kind == 1 && s.r.Empty()) continue;
      ASSERT_TRUE(update(key, s).ok());
      model[key] = cells_of(s);
    } else {
      ASSERT_TRUE(g.Remove(key).ok());
      model.erase(key);
    }
    check(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexDifferentialTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace scuba
