// Closed-form cross-checks of the validated integrator on linear systems
// x' = A x + B u, where the exact flow e^{At} is known analytically —
// containment sweeps across several (A, B) pairs plus a convergence-order
// check of the Taylor scheme (local error ~ h^{K+1}).

#include <gtest/gtest.h>

#include <cmath>

#include "ode/concrete_integrator.hpp"
#include "ode/dynamics.hpp"
#include "ode/validated_integrator.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

/// Generic 2x2 linear field: out = A s + B u (single scalar command).
struct LinearField {
  double a11, a12, a21, a22, b1, b2;
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = Interval{a11} * s[0] + Interval{a12} * s[1] + Interval{b1} * u[0];
    out[1] = Interval{a21} * s[0] + Interval{a22} * s[1] + Interval{b2} * u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = a11 * s[0] + a12 * s[1] + b1 * u[0];
    out[1] = a21 * s[0] + a22 * s[1] + b2 * u[0];
  }
};

struct LinearCase {
  const char* name;
  LinearField field;
  double period;
  int steps;
  double u;
};

// Printed as the case name so the listed test name holds no pointer bytes
// (see PrintTo(OpCase) in test_interval.cpp).
void PrintTo(const LinearCase& c, std::ostream* os) { *os << c.name; }

class LinearFlowContainment : public ::testing::TestWithParam<LinearCase> {};

/// Reference flow via very fine RK4 (error ~ 1e-12, far below enclosure
/// widths).
Vec reference_flow(const Dynamics& f, const Vec& s0, double u, double t) {
  return rk4_integrate(f, s0, Vec{u}, t, 2000);
}

TEST_P(LinearFlowContainment, ClosedFormExtremesInsideEnclosure) {
  const LinearCase& c = GetParam();
  const auto f = make_dynamics(2, 1, c.field);
  const Box s0{Interval{0.8, 1.2}, Interval{-0.6, -0.2}};
  const TaylorIntegrator integrator;
  const Flowpipe pipe = simulate(*f, integrator, s0, Vec{c.u}, c.period, c.steps);
  ASSERT_TRUE(pipe.ok) << c.name;

  // Linear flows map boxes to parallelograms whose extreme points are
  // images of the box corners: all four corner flows must be inside the end
  // enclosure, and so must random interior points. Corner images can land
  // exactly on the enclosure boundary, so allow the RK4 reference its own
  // ~1e-12 roundoff.
  const Box end_box = pipe.end.inflated(1e-9);
  Rng rng(808);
  for (const double x0 : {0.8, 1.2}) {
    for (const double v0 : {-0.6, -0.2}) {
      const Vec end = reference_flow(*f, Vec{x0, v0}, c.u, c.period);
      ASSERT_TRUE(end_box.contains(end)) << c.name << " corner (" << x0 << "," << v0 << ")";
    }
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Vec start{rng.uniform(0.8, 1.2), rng.uniform(-0.6, -0.2)};
    const Vec end = reference_flow(*f, start, c.u, c.period);
    ASSERT_TRUE(end_box.contains(end)) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, LinearFlowContainment,
    ::testing::Values(
        LinearCase{"double_integrator", {0, 1, 0, 0, 0, 1}, 1.0, 8, -0.5},
        LinearCase{"stable_node", {-1, 0, 0, -2, 1, 0}, 1.0, 8, 0.3},
        LinearCase{"spiral", {-0.2, 1, -1, -0.2, 0, 1}, 1.0, 16, 0.0},
        LinearCase{"saddle", {0.5, 0, 0, -0.5, 1, 1}, 0.5, 8, 0.1},
        LinearCase{"shear", {0, 2, 0, 0, 0, 0}, 1.0, 4, 0.0},
        LinearCase{"rotation_fast", {0, 3, -3, 0, 0, 0}, 1.0, 32, 0.0}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(TaylorConvergence, LocalErrorDropsWithOrder) {
  // On the spiral system, the end-box width from a *degenerate* initial
  // point isolates the method error; it must shrink rapidly with the Taylor
  // order until the rounding floor.
  const auto f = make_dynamics(2, 1, LinearField{-0.2, 1.0, -1.0, -0.2, 0.0, 0.0});
  const Box point{Interval{1.0}, Interval{0.0}};
  double first = 0.0;
  double previous = 1e300;
  for (const int order : {1, 2, 3, 4}) {
    const TaylorIntegrator integrator(TaylorIntegrator::Config{order, {}});
    const auto step = integrator.step(*f, point, Vec{0.0}, 0.25);
    ASSERT_TRUE(step.has_value());
    const double width = step->end.max_width();
    EXPECT_LT(width, previous);
    if (order == 1) {
      first = width;
    }
    previous = width;
  }
  // Orders of magnitude between order 1 and order 4 (the remainder is
  // evaluated over the a-priori enclosure, so it floors around h^5 * rad(B)
  // rather than machine precision).
  EXPECT_LT(previous, 1e-3);
  EXPECT_GT(first / previous, 100.0);
}

TEST(TaylorConvergence, StepHalvingMatchesOrder) {
  // Halving h should shrink the one-step error by ~2^{K+1} for order K
  // (allowing generous slack for the enclosure seams).
  const auto f = make_dynamics(2, 1, LinearField{-0.2, 1.0, -1.0, -0.2, 0.0, 0.0});
  const Box point{Interval{1.0}, Interval{0.0}};
  const TaylorIntegrator integrator(TaylorIntegrator::Config{2, {}});
  const auto coarse = integrator.step(*f, point, Vec{0.0}, 0.2);
  const auto fine = integrator.step(*f, point, Vec{0.0}, 0.1);
  ASSERT_TRUE(coarse.has_value());
  ASSERT_TRUE(fine.has_value());
  const double ratio = coarse->end.max_width() / fine->end.max_width();
  EXPECT_GT(ratio, 4.0);  // at least ~2^2; theory says ~2^3
}

}  // namespace
}  // namespace nncs
