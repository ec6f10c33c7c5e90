// Tests for the error/target state regions, including the opposite-direction
// soundness of the two box-level tests.

#include <gtest/gtest.h>

#include "core/specs.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

TEST(RadialRegion, InnerContainsPoint) {
  const RadialRegion collision(0, 1, 500.0, RadialRegion::Mode::kInner);
  EXPECT_TRUE(collision.contains_point(Vec{100.0, 100.0, 9.9}, 0));
  EXPECT_FALSE(collision.contains_point(Vec{400.0, 400.0, 0.0}, 0));  // r = 565
  EXPECT_FALSE(collision.contains_point(Vec{500.0, 0.0, 0.0}, 0));    // boundary: strict
}

TEST(RadialRegion, OuterContainsPoint) {
  const RadialRegion escape(0, 1, 8000.0, RadialRegion::Mode::kOuter);
  EXPECT_TRUE(escape.contains_point(Vec{8001.0, 0.0}, 0));
  EXPECT_FALSE(escape.contains_point(Vec{7000.0, 0.0}, 0));
}

TEST(RadialRegion, CertainlyContainsIsForAll) {
  const RadialRegion collision(0, 1, 500.0, RadialRegion::Mode::kInner);
  // Box fully inside r < 500.
  EXPECT_TRUE(collision.certainly_contains(Box{Interval{0.0, 100.0}, Interval{0.0, 100.0}}, 0));
  // Box straddling the boundary: must NOT claim containment.
  EXPECT_FALSE(
      collision.certainly_contains(Box{Interval{0.0, 600.0}, Interval{0.0, 0.0}}, 0));
}

TEST(RadialRegion, PossiblyIntersectsIsExists) {
  const RadialRegion collision(0, 1, 500.0, RadialRegion::Mode::kInner);
  // Box far outside: provably disjoint.
  EXPECT_FALSE(
      collision.possibly_intersects(Box{Interval{1000.0, 2000.0}, Interval{0.0, 0.0}}, 0));
  // Box straddling: must report possible intersection.
  EXPECT_TRUE(
      collision.possibly_intersects(Box{Interval{400.0, 600.0}, Interval{0.0, 0.0}}, 0));
}

TEST(RadialRegion, ValidatesThreshold) {
  EXPECT_THROW(RadialRegion(0, 1, -1.0, RadialRegion::Mode::kInner), std::invalid_argument);
  EXPECT_THROW(RadialRegion(0, 1, 0.0, RadialRegion::Mode::kOuter), std::invalid_argument);
}

TEST(BoxRegion, ChecksOnlyConstrainedDims) {
  const BoxRegion region({{1, Interval{0.0, 1.0}}});
  EXPECT_TRUE(region.contains_point(Vec{999.0, 0.5, -999.0}, 0));
  EXPECT_FALSE(region.contains_point(Vec{0.0, 2.0, 0.0}, 0));
}

TEST(BoxRegion, BoxTests) {
  const BoxRegion region({{0, Interval{-1e6, 0.0}}});
  EXPECT_TRUE(region.certainly_contains(Box{Interval{-5.0, -1.0}, Interval{0.0, 1.0}}, 0));
  EXPECT_FALSE(region.certainly_contains(Box{Interval{-5.0, 1.0}, Interval{0.0, 1.0}}, 0));
  EXPECT_TRUE(region.possibly_intersects(Box{Interval{-5.0, 1.0}, Interval{0.0, 1.0}}, 0));
  EXPECT_FALSE(region.possibly_intersects(Box{Interval{1.0, 2.0}, Interval{0.0, 1.0}}, 0));
}

TEST(BoxRegion, MultipleConstraints) {
  const BoxRegion region({{0, Interval{0.0, 1.0}}, {1, Interval{0.0, 1.0}}});
  EXPECT_TRUE(region.contains_point(Vec{0.5, 0.5}, 0));
  EXPECT_FALSE(region.contains_point(Vec{0.5, 1.5}, 0));
  EXPECT_FALSE(
      region.possibly_intersects(Box{Interval{0.2, 0.8}, Interval{2.0, 3.0}}, 0));
  EXPECT_THROW(BoxRegion(std::vector<std::pair<std::size_t, Interval>>{}),
               std::invalid_argument);
}

TEST(EmptyRegion, NeverMatchesAnything) {
  const EmptyRegion none;
  EXPECT_FALSE(none.contains_point(Vec{0.0}, 0));
  EXPECT_FALSE(none.certainly_contains(Box{Interval{-1e9, 1e9}}, 0));
  EXPECT_FALSE(none.possibly_intersects(Box{Interval{-1e9, 1e9}}, 0));
}

TEST(UnionRegion, CombinesBothParts) {
  const UnionRegion cone(std::make_unique<BoxRegion>(BoxRegion({{0, Interval{-1e9, -0.6}}})),
                         std::make_unique<BoxRegion>(BoxRegion({{0, Interval{0.6, 1e9}}})));
  EXPECT_TRUE(cone.contains_point(Vec{0.7}, 0));
  EXPECT_TRUE(cone.contains_point(Vec{-0.7}, 0));
  EXPECT_FALSE(cone.contains_point(Vec{0.0}, 0));
  EXPECT_TRUE(cone.certainly_contains(Box{Interval{0.7, 0.9}}, 0));
  // Straddles both halves: neither part certainly contains it, and the
  // union test is conservative (sound but incomplete) about that.
  EXPECT_FALSE(cone.certainly_contains(Box{Interval{-0.9, 0.9}}, 0));
  EXPECT_TRUE(cone.possibly_intersects(Box{Interval{-0.9, 0.9}}, 0));
  EXPECT_FALSE(cone.possibly_intersects(Box{Interval{-0.1, 0.1}}, 0));
  EXPECT_THROW(UnionRegion(std::make_unique<EmptyRegion>(), nullptr), std::invalid_argument);
}

// Soundness property: for random boxes,
//  * certainly_contains(box) implies every sampled point is inside;
//  * !possibly_intersects(box) implies every sampled point is outside.
TEST(RegionProperty, BoxTestsSoundInBothDirections) {
  Rng rng(31);
  const RadialRegion inner(0, 1, 2.0, RadialRegion::Mode::kInner);
  const RadialRegion outer(0, 1, 2.0, RadialRegion::Mode::kOuter);
  for (int trial = 0; trial < 300; ++trial) {
    const double lo0 = rng.uniform(-4.0, 4.0);
    const double lo1 = rng.uniform(-4.0, 4.0);
    const Box box{Interval{lo0, lo0 + rng.uniform(0.0, 2.0)},
                  Interval{lo1, lo1 + rng.uniform(0.0, 2.0)}};
    for (const StateRegion* region : {static_cast<const StateRegion*>(&inner),
                                      static_cast<const StateRegion*>(&outer)}) {
      const bool certain = region->certainly_contains(box, 0);
      const bool possible = region->possibly_intersects(box, 0);
      for (int s = 0; s < 20; ++s) {
        const Vec p{rng.uniform(box[0].lo(), box[0].hi()),
                    rng.uniform(box[1].lo(), box[1].hi())};
        const bool inside = region->contains_point(p, 0);
        if (certain) {
          ASSERT_TRUE(inside);
        }
        if (!possible) {
          ASSERT_FALSE(inside);
        }
      }
    }
  }
}

}  // namespace
}  // namespace nncs
