#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/circle.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace scuba {
namespace {

// ---------- Point / Vec2 ----------

TEST(PointTest, VectorArithmetic) {
  Vec2 a{1.0, 2.0};
  Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
}

TEST(PointTest, CompoundAssignment) {
  Vec2 v{1.0, 1.0};
  v += Vec2{2.0, 3.0};
  EXPECT_EQ(v, (Vec2{3.0, 4.0}));
  v -= Vec2{1.0, 1.0};
  EXPECT_EQ(v, (Vec2{2.0, 3.0}));
  Point p{0.0, 0.0};
  p += Vec2{5.0, 5.0};
  EXPECT_EQ(p, (Point{5.0, 5.0}));
}

TEST(PointTest, NormAndNormalized) {
  Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  Vec2 n = v.Normalized();
  EXPECT_NEAR(n.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.x, 0.6, 1e-12);
}

TEST(PointTest, ZeroVectorNormalizesToZero) {
  Vec2 z{0.0, 0.0};
  EXPECT_EQ(z.Normalized(), (Vec2{0.0, 0.0}));
}

TEST(PointTest, PointMinusPointIsVector) {
  Point a{5.0, 7.0};
  Point b{2.0, 3.0};
  EXPECT_EQ(a - b, (Vec2{3.0, 4.0}));
  EXPECT_EQ(b + (a - b), a);
}

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(PointTest, Lerp) {
  Point a{0, 0};
  Point b{10, 20};
  EXPECT_EQ(Lerp(a, b, 0.0), a);
  EXPECT_EQ(Lerp(a, b, 1.0), b);
  EXPECT_EQ(Lerp(a, b, 0.5), (Point{5, 10}));
}

TEST(PointTest, ApproxEqual) {
  EXPECT_TRUE(ApproxEqual({1.0, 1.0}, {1.0 + 1e-12, 1.0}));
  EXPECT_FALSE(ApproxEqual({1.0, 1.0}, {1.1, 1.0}));
}

TEST(PointTest, ToStringFormat) {
  EXPECT_EQ((Point{1.5, -2.0}).ToString(), "(1.5, -2)");
  EXPECT_EQ((Vec2{0.0, 3.25}).ToString(), "<0, 3.25>");
}

// ---------- Circle ----------

TEST(CircleTest, ContainsPoint) {
  Circle c{{0, 0}, 5.0};
  EXPECT_TRUE(c.Contains({3, 4}));   // on boundary
  EXPECT_TRUE(c.Contains({0, 0}));
  EXPECT_TRUE(c.Contains({2, 2}));
  EXPECT_FALSE(c.Contains({4, 4}));
}

TEST(CircleTest, ZeroRadiusIsPoint) {
  Circle c{{1, 1}, 0.0};
  EXPECT_TRUE(c.Contains({1, 1}));
  EXPECT_FALSE(c.Contains({1.0001, 1}));
}

TEST(CircleTest, OverlapsBasics) {
  EXPECT_TRUE(Overlaps({{0, 0}, 2}, {{3, 0}, 2}));     // intersecting
  EXPECT_TRUE(Overlaps({{0, 0}, 2}, {{4, 0}, 2}));     // touching
  EXPECT_FALSE(Overlaps({{0, 0}, 2}, {{4.01, 0}, 2})); // separated
  EXPECT_TRUE(Overlaps({{0, 0}, 5}, {{1, 0}, 1}));     // containment
}

TEST(CircleTest, OverlapsIsSymmetric) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    Circle a{{rng.NextDouble(-10, 10), rng.NextDouble(-10, 10)},
             rng.NextDouble(0, 5)};
    Circle b{{rng.NextDouble(-10, 10), rng.NextDouble(-10, 10)},
             rng.NextDouble(0, 5)};
    EXPECT_EQ(Overlaps(a, b), Overlaps(b, a));
  }
}

TEST(CircleTest, ContainmentImpliesOverlap) {
  Rng rng(78);
  for (int i = 0; i < 500; ++i) {
    Circle outer{{rng.NextDouble(-10, 10), rng.NextDouble(-10, 10)},
                 rng.NextDouble(1, 5)};
    Circle inner{{outer.center.x + rng.NextDouble(-0.5, 0.5),
                  outer.center.y + rng.NextDouble(-0.5, 0.5)},
                 rng.NextDouble(0, 0.4)};
    if (ContainsCircle(outer, inner)) {
      EXPECT_TRUE(Overlaps(outer, inner));
    }
  }
}

// Pins the paper's Algorithm 2 discrepancy: the (R_L - R_R)^2 formula is a
// containment test that misses genuinely overlapping clusters, which is why
// the engine uses the corrected predicate (DESIGN.md deviation 1).
TEST(CircleTest, PaperAlgorithm2FormulaIsContainmentNotOverlap) {
  Circle a{{0, 0}, 2.0};
  Circle b{{3, 0}, 2.0};
  // The circles clearly overlap (centers 3 apart, radii sum 4)...
  EXPECT_TRUE(Overlaps(a, b));
  // ...but the paper's formula dist^2 < (R_L - R_R)^2 = 0 rejects them.
  EXPECT_FALSE(SquaredDistance(a.center, b.center) <
               (a.radius - b.radius) * (a.radius - b.radius));
  EXPECT_FALSE(ContainsCircle(a, b));
}

TEST(CircleTest, ContainsCircleBasics) {
  EXPECT_TRUE(ContainsCircle({{0, 0}, 5}, {{1, 0}, 2}));
  EXPECT_FALSE(ContainsCircle({{0, 0}, 5}, {{4, 0}, 2}));
  EXPECT_FALSE(ContainsCircle({{0, 0}, 1}, {{0, 0}, 2}));  // inner larger
  EXPECT_TRUE(ContainsCircle({{0, 0}, 2}, {{0, 0}, 2}));   // identical
}

// ---------- Rect ----------

TEST(RectTest, CenteredConstruction) {
  Rect r = Rect::Centered({10, 20}, 4, 6);
  EXPECT_EQ(r.min_x, 8);
  EXPECT_EQ(r.max_x, 12);
  EXPECT_EQ(r.min_y, 17);
  EXPECT_EQ(r.max_y, 23);
  EXPECT_EQ(r.Center(), (Point{10, 20}));
  EXPECT_EQ(r.Width(), 4);
  EXPECT_EQ(r.Height(), 6);
  EXPECT_EQ(r.Area(), 24);
}

TEST(RectTest, EmptyRect) {
  Rect r{5, 5, 3, 8};  // min_x > max_x
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_FALSE(Intersects(r, Rect{0, 0, 10, 10}));
}

TEST(RectTest, ContainsPointClosed) {
  Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.Contains(Point{0, 0}));
  EXPECT_TRUE(r.Contains(Point{10, 10}));
  EXPECT_TRUE(r.Contains(Point{5, 5}));
  EXPECT_FALSE(r.Contains(Point{-0.001, 5}));
  EXPECT_FALSE(r.Contains(Point{5, 10.001}));
}

TEST(RectTest, ContainsRect) {
  Rect outer{0, 0, 10, 10};
  EXPECT_TRUE(outer.Contains(Rect{1, 1, 9, 9}));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect{5, 5, 11, 9}));
}

TEST(RectTest, RectRectIntersection) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(Intersects(a, Rect{5, 5, 15, 15}));
  EXPECT_TRUE(Intersects(a, Rect{10, 10, 20, 20}));  // corner touch
  EXPECT_FALSE(Intersects(a, Rect{10.1, 0, 20, 10}));
  EXPECT_TRUE(Intersects(a, Rect{2, 2, 3, 3}));      // containment
}

TEST(RectTest, ClosestPointInRect) {
  Rect r{0, 0, 10, 10};
  EXPECT_EQ(ClosestPointInRect(r, {5, 5}), (Point{5, 5}));      // inside
  EXPECT_EQ(ClosestPointInRect(r, {-3, 5}), (Point{0, 5}));     // left
  EXPECT_EQ(ClosestPointInRect(r, {15, 15}), (Point{10, 10}));  // corner
}

TEST(RectTest, RectCircleIntersection) {
  Rect r{0, 0, 10, 10};
  EXPECT_TRUE(Intersects(r, Circle{{5, 5}, 1}));      // circle inside
  EXPECT_TRUE(Intersects(r, Circle{{-1, 5}, 1.5}));   // crosses edge
  EXPECT_TRUE(Intersects(r, Circle{{-1, 5}, 1.0}));   // touches edge
  EXPECT_FALSE(Intersects(r, Circle{{-2, 5}, 1.0}));  // separated
  // Near a corner the Euclidean metric matters: center (12,12), radius 2.5
  // does not reach corner (10,10) (distance ~2.83) though the bounding boxes
  // overlap.
  EXPECT_FALSE(Intersects(r, Circle{{12, 12}, 2.5}));
  EXPECT_TRUE(Intersects(r, Circle{{12, 12}, 2.9}));
}

TEST(RectTest, ZeroRadiusCircleEqualsContains) {
  Rng rng(79);
  Rect r{0, 0, 10, 10};
  for (int i = 0; i < 500; ++i) {
    Point p{rng.NextDouble(-5, 15), rng.NextDouble(-5, 15)};
    EXPECT_EQ(r.Contains(p), Intersects(r, Circle{p, 0.0}));
  }
}

TEST(RectTest, UnionAndIntersection) {
  Rect a{0, 0, 5, 5};
  Rect b{3, 3, 10, 10};
  Rect u = Union(a, b);
  EXPECT_EQ(u, (Rect{0, 0, 10, 10}));
  Rect i = Intersection(a, b);
  EXPECT_EQ(i, (Rect{3, 3, 5, 5}));
  Rect disjoint = Intersection(a, Rect{6, 6, 7, 7});
  EXPECT_TRUE(disjoint.Empty());
}

TEST(RectTest, UnionWithEmpty) {
  Rect a{0, 0, 5, 5};
  Rect empty{1, 1, 0, 0};
  EXPECT_EQ(Union(a, empty), a);
  EXPECT_EQ(Union(empty, a), a);
}

// Property: rect-circle intersection agrees with dense point sampling.
class RectCirclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RectCirclePropertyTest, AgreesWithSampling) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    Rect r{rng.NextDouble(-5, 0), rng.NextDouble(-5, 0), rng.NextDouble(0, 5),
           rng.NextDouble(0, 5)};
    Circle c{{rng.NextDouble(-8, 8), rng.NextDouble(-8, 8)},
             rng.NextDouble(0, 4)};
    if (!Intersects(r, c)) {
      // No sampled point of the disk may fall in the rect.
      for (int s = 0; s < 50; ++s) {
        double ang = rng.NextDouble(0, 2 * M_PI);
        double rad = c.radius * std::sqrt(rng.NextDouble());
        Point p{c.center.x + rad * std::cos(ang),
                c.center.y + rad * std::sin(ang)};
        EXPECT_FALSE(r.Contains(p))
            << "disjoint verdict but sampled disk point inside rect";
      }
    } else {
      // The closest rect point to the center must be within the radius.
      Point cp = ClosestPointInRect(r, c.center);
      EXPECT_LE(Distance(cp, c.center), c.radius + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectCirclePropertyTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace scuba
