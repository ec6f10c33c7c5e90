// Tests for the falsifier's view of the verification scenario: the
// on-circle initial states, the sampler over the penetration cone and the
// robustness margin. The Fig 8 partition and the E/T regions belong to the
// registered "acasxu" scenario and are tested in test_scenario.cpp.

#include <gtest/gtest.h>

#include <cmath>

#include "acasxu/dynamics.hpp"
#include "acasxu/scenario.hpp"
#include "util/rng.hpp"

namespace nncs::acasxu {
namespace {

TEST(Scenario, SampledHeadingsPenetrateTheCircle) {
  // Every sampled initial heading must point into the sensor circle:
  // d/dt rho < 0 at t=0 when both aircraft velocities are accounted for is
  // not guaranteed, but the *intruder velocity* must have negative radial
  // component (the geometric cone of Fig 1).
  const auto sampler = make_sampler();
  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    // Keep a margin from the tangential boundary of the cone.
    const Vec params{rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95)};
    const auto [state, command] = sampler(params);
    const double x = state[kIdxX];
    const double y = state[kIdxY];
    const double psi = state[kIdxPsi];
    // Intruder velocity direction in the body frame: (-sin psi, cos psi).
    const double radial = (-std::sin(psi)) * x + std::cos(psi) * y;
    ASSERT_LT(radial, 0.0) << "heading does not penetrate the circle";
    (void)command;
  }
}

TEST(Scenario, InitialStateOnCircle) {
  for (const double bearing : {0.0, 1.0, -2.5, 3.0}) {
    const Vec s = initial_state(bearing, 0.5);
    EXPECT_NEAR(std::hypot(s[kIdxX], s[kIdxY]), kSensorRange, 1e-6);
    // Heading fraction 0.5 = pointing straight at the ownship.
    const double radial =
        (-std::sin(s[kIdxPsi])) * s[kIdxX] + std::cos(s[kIdxPsi]) * s[kIdxY];
    EXPECT_NEAR(radial, -kSensorRange, 1e-6);
    EXPECT_EQ(s[kIdxVown], kVown);
    EXPECT_EQ(s[kIdxVint], kVint);
  }
}

TEST(Scenario, RobustnessMatchesSeparationMargin) {
  const auto robustness = make_robustness();
  EXPECT_NEAR(robustness(Vec{300.0, 400.0, 0.0, 700.0, 600.0}), 0.0, 1e-9);
  EXPECT_GT(robustness(Vec{3000.0, 4000.0, 0.0, 700.0, 600.0}), 0.0);
  EXPECT_LT(robustness(Vec{100.0, 100.0, 0.0, 700.0, 600.0}), 0.0);
}

TEST(Scenario, SamplerValidatesParams) {
  const auto sampler = make_sampler();
  EXPECT_THROW(sampler(Vec{0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace nncs::acasxu
