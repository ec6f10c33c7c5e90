// Tests for the ACAS Xu plant kinematics (paper eq. 1) and the encounter
// geometry helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/geometry.hpp"
#include "ode/concrete_integrator.hpp"
#include "ode/validated_integrator.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace nncs::acasxu {
namespace {

constexpr double kPi = std::numbers::pi;

Vec derivative(const Vec& s, double u) {
  const auto f = make_dynamics();
  Vec out(kStateDim);
  f->eval(std::span<const double>(s), std::span<const double>(Vec{u}), std::span<double>(out));
  return out;
}

TEST(AcasDynamics, HeadOnClosingGeometry) {
  // Intruder dead ahead (y > 0), flying toward the ownship (psi = pi).
  const Vec d = derivative(Vec{0.0, 8000.0, kPi, 700.0, 600.0}, 0.0);
  EXPECT_NEAR(d[kIdxX], 0.0, 1e-9);
  // Closing speed = v_own + v_int.
  EXPECT_NEAR(d[kIdxY], -1300.0, 1e-9);
  EXPECT_NEAR(d[kIdxPsi], 0.0, 1e-12);
  EXPECT_EQ(d[kIdxVown], 0.0);
  EXPECT_EQ(d[kIdxVint], 0.0);
}

TEST(AcasDynamics, ParallelSameHeading) {
  // Intruder ahead flying the same direction: closing at v_int - v_own.
  const Vec d = derivative(Vec{0.0, 8000.0, 0.0, 700.0, 600.0}, 0.0);
  EXPECT_NEAR(d[kIdxX], 0.0, 1e-9);
  EXPECT_NEAR(d[kIdxY], -100.0, 1e-9);
}

TEST(AcasDynamics, OwnshipTurnInducesApparentRotation) {
  // Pure rotation at rate u: a point ahead moves to the right (+x) when the
  // ownship turns counter-clockwise (u > 0): x' = u*y.
  const double u = 0.05;
  const Vec d = derivative(Vec{0.0, 1000.0, 0.0, 0.0, 0.0}, u);
  EXPECT_NEAR(d[kIdxX], u * 1000.0, 1e-9);
  EXPECT_NEAR(d[kIdxY], 0.0, 1e-9);
  EXPECT_NEAR(d[kIdxPsi], -u, 1e-12);
}

TEST(AcasDynamics, PureRotationPreservesRange) {
  // With both speeds zero, a turn command only rotates the relative frame:
  // rho must be conserved along the trajectory.
  const auto f = make_dynamics();
  Vec s{3000.0, 4000.0, 1.0, 0.0, 0.0};  // rho = 5000
  s = rk4_integrate(*f, s, Vec{turn_rate(kSL)}, 10.0, 1000);
  EXPECT_NEAR(std::hypot(s[kIdxX], s[kIdxY]), 5000.0, 1e-6);
  // psi decreased by the integrated turn.
  EXPECT_NEAR(s[kIdxPsi], 1.0 - 10.0 * turn_rate(kSL), 1e-9);
}

TEST(AcasDynamics, StraightLineRelativeMotionMatchesClosedForm) {
  // u = 0 and psi = pi/2: intruder crosses left-to-right... with our
  // convention psi is CCW from +y, so velocity = v_int(-sin psi, cos psi)
  // = (-600, 0): moving toward -x; ownship advances +y at 700.
  const auto f = make_dynamics();
  const Vec s0{1000.0, 5000.0, kPi / 2.0, 700.0, 600.0};
  const Vec s1 = rk4_integrate(*f, s0, Vec{0.0}, 2.0, 200);
  EXPECT_NEAR(s1[kIdxX], 1000.0 - 600.0 * 2.0, 1e-6);
  EXPECT_NEAR(s1[kIdxY], 5000.0 - 700.0 * 2.0, 1e-6);
}

TEST(AcasDynamics, ValidatedStepContainsConcreteTrajectories) {
  const auto f = make_dynamics();
  const TaylorIntegrator integrator;
  const Box s0{Interval{-100.0, 100.0}, Interval{7900.0, 8100.0}, Interval{3.0, 3.2},
               Interval{700.0}, Interval{600.0}};
  const Vec u{turn_rate(kWL)};
  const auto pipe = simulate(*f, integrator, s0, u, 1.0, 10);
  ASSERT_TRUE(pipe.ok);
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    Vec s{rng.uniform(-100.0, 100.0), rng.uniform(7900.0, 8100.0), rng.uniform(3.0, 3.2),
          700.0, 600.0};
    const Vec end = rk4_integrate(*f, s, u, 1.0, 256);
    ASSERT_TRUE(pipe.end.contains(end))
        << "end state escaped validated enclosure";
  }
}

bool has_subnormal_bound(const Box& box) {
  for (const Interval& iv : box.intervals()) {
    if (std::fpclassify(iv.lo()) == FP_SUBNORMAL || std::fpclassify(iv.hi()) == FP_SUBNORMAL) {
      return true;
    }
  }
  return false;
}

// v_own' = v_int' = 0 and zero Taylor coefficients stay exactly [0, 0], so
// one control period (the paper's M = 10 sub-steps of T = 1 s) keeps both
// speeds degenerate and never rounds a zero out to ±4.9e-324, whose
// products take the CPU's slow subnormal path. Measures no time: a return
// to rounding the zeros fails here. The arcs that end at bearing 0 or ±π
// start with a subnormal x bound (8000 · sin 0 rounded outward), which the
// flow segments inherit; the subnormal check skips those cells.
TEST(AcasDynamics, ControlPeriodKeepsSpeedsExactAndNoBoundSubnormal) {
  const scenario::Scenario& acas = scenario::Registry::global().at("acasxu");
  const auto f = acas.make_plant();
  const TaylorIntegrator integrator(TaylorIntegrator::Config{acas.default_taylor_order(), {}});
  const int m = acas.default_config().reach.integration_steps;
  ASSERT_EQ(m, 10);
  int checked = 0;
  for (const scenario::Cell& cell : acas.make_cells(scenario::Partition{8, 4})) {
    const Box& s0 = cell.state.box();
    if (has_subnormal_bound(s0)) {
      continue;
    }
    for (const std::size_t advisory : {kCoc, kWL}) {
      const Flowpipe pipe = simulate(*f, integrator, s0, Vec{turn_rate(advisory)}, 1.0, m);
      ASSERT_TRUE(pipe.ok);
      ASSERT_EQ(pipe.segments.size(), static_cast<std::size_t>(m));
      std::vector<Box> boxes = pipe.segments;
      boxes.push_back(pipe.end);
      for (const Box& box : boxes) {
        for (const std::size_t d : {kIdxVown, kIdxVint}) {
          EXPECT_EQ(box[d], s0[d]) << advisory_name(advisory) << " dim " << d << ": " << box[d];
        }
        EXPECT_FALSE(has_subnormal_bound(box)) << advisory_name(advisory) << ": " << box;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 16 * 2 * 11);
}

TEST(AcasGeometry, RhoAndTheta) {
  EXPECT_NEAR(rho(3.0, 4.0), 5.0, 1e-12);
  // Intruder dead ahead: theta = 0.
  EXPECT_NEAR(theta(0.0, 1000.0), 0.0, 1e-12);
  // Intruder to the left (x < 0): positive theta (CCW).
  EXPECT_GT(theta(-1000.0, 1000.0), 0.0);
  // Intruder to the right: negative theta.
  EXPECT_LT(theta(1000.0, 1000.0), 0.0);
  // Intruder behind: |theta| = pi.
  EXPECT_NEAR(std::fabs(theta(0.0, -1000.0)), kPi, 1e-9);
}

TEST(AcasGeometry, CirclePointMatchesThetaConvention) {
  for (const double bearing : {0.0, 0.7, -1.3, 2.9}) {
    const Vec p = circle_point(8000.0, bearing);
    EXPECT_NEAR(rho(p[0], p[1]), 8000.0, 1e-9);
    EXPECT_NEAR(theta(p[0], p[1]), bearing, 1e-9);
  }
}

TEST(AcasGeometry, IntervalOverloadsContainPointValues) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const double x_lo = rng.uniform(-5000.0, 5000.0);
    const double y_lo = rng.uniform(-5000.0, 5000.0);
    const Interval x(x_lo, x_lo + rng.uniform(0.0, 500.0));
    const Interval y(y_lo, y_lo + rng.uniform(0.0, 500.0));
    const Interval r = rho(x, y);
    const Interval th = theta(x, y);
    for (int s = 0; s < 10; ++s) {
      const double px = rng.uniform(x.lo(), x.hi());
      const double py = rng.uniform(y.lo(), y.hi());
      ASSERT_TRUE(r.contains(rho(px, py)));
      ASSERT_TRUE(th.contains(theta(px, py)));
    }
  }
}

TEST(AcasGeometry, MirrorStateIsAnInvolution) {
  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec s{rng.uniform(-8000.0, 8000.0), rng.uniform(-8000.0, 8000.0),
                rng.uniform(-3.0, 3.0), 700.0, 600.0};
    const Vec twice = mirror_state(mirror_state(s));
    for (std::size_t d = 0; d < kStateDim; ++d) {
      ASSERT_NEAR(twice[d], s[d], 1e-6);
    }
  }
  EXPECT_THROW(mirror_state(Vec{1.0}), std::invalid_argument);
}

TEST(AcasGeometry, MirrorStateHeadOnIsSymmetric) {
  // Head-on: the intruder sees the ownship dead ahead at the same distance,
  // heading toward it, with speeds swapped.
  const Vec s{0.0, 8000.0, kPi, 700.0, 600.0};
  const Vec m = mirror_state(s);
  EXPECT_NEAR(m[kIdxX], 0.0, 1e-9);
  EXPECT_NEAR(m[kIdxY], 8000.0, 1e-6);
  EXPECT_NEAR(m[kIdxPsi], -kPi, 1e-12);  // same physical heading (mod 2pi)
  EXPECT_DOUBLE_EQ(m[kIdxVown], 600.0);
  EXPECT_DOUBLE_EQ(m[kIdxVint], 700.0);
}

TEST(AcasGeometry, MirrorPreservesDistance) {
  Rng rng(20);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec s{rng.uniform(-8000.0, 8000.0), rng.uniform(-8000.0, 8000.0),
                rng.uniform(-3.0, 3.0), 700.0, 600.0};
    const Vec m = mirror_state(s);
    ASSERT_NEAR(std::hypot(m[kIdxX], m[kIdxY]), std::hypot(s[kIdxX], s[kIdxY]), 1e-6);
  }
}

TEST(AcasGeometry, MirrorBoxContainsMirroredPoints) {
  Rng rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    const double x_lo = rng.uniform(-6000.0, 5500.0);
    const double y_lo = rng.uniform(-6000.0, 5500.0);
    const double p_lo = rng.uniform(-3.0, 2.8);
    const Box box{Interval{x_lo, x_lo + 400.0}, Interval{y_lo, y_lo + 400.0},
                  Interval{p_lo, p_lo + 0.1}, Interval{700.0}, Interval{600.0}};
    const Box mirrored = mirror_state(box);
    for (int s = 0; s < 10; ++s) {
      const Vec state{rng.uniform(box[0].lo(), box[0].hi()),
                      rng.uniform(box[1].lo(), box[1].hi()),
                      rng.uniform(box[2].lo(), box[2].hi()), 700.0, 600.0};
      ASSERT_TRUE(mirrored.contains(mirror_state(state)));
    }
  }
}

TEST(AcasDualDynamics, ReducesToSingleWhenIntruderFliesStraight) {
  const auto single = make_dynamics();
  const auto dual = make_dual_dynamics();
  EXPECT_EQ(dual->command_dim(), 2u);
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec s{rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0),
                rng.uniform(-3.0, 3.0), 700.0, 600.0};
    const double u_own = rng.uniform(-0.05, 0.05);
    Vec d_single(kStateDim);
    Vec d_dual(kStateDim);
    single->eval(std::span<const double>(s), std::span<const double>(Vec{u_own}),
                 std::span<double>(d_single));
    dual->eval(std::span<const double>(s), std::span<const double>(Vec{u_own, 0.0}),
               std::span<double>(d_dual));
    for (std::size_t d = 0; d < kStateDim; ++d) {
      ASSERT_NEAR(d_dual[d], d_single[d], 1e-12);
    }
  }
}

TEST(AcasDualDynamics, IntruderTurnDrivesRelativeHeading) {
  const auto dual = make_dual_dynamics();
  const Vec s{0.0, 8000.0, 1.0, 700.0, 600.0};
  Vec d(kStateDim);
  dual->eval(std::span<const double>(s), std::span<const double>(Vec{0.02, 0.05}),
             std::span<double>(d));
  EXPECT_NEAR(d[kIdxPsi], 0.05 - 0.02, 1e-12);
}

TEST(AcasGeometry, NormalizationRoundTrip) {
  const Normalization& norm = kNormalization;
  const Vec polar{8000.0, 0.5, -1.0, 700.0, 600.0};
  const Vec n = normalize_features(polar);
  EXPECT_NEAR(n[0], (8000.0 - norm.rho_mean) / norm.rho_range, 1e-12);
  EXPECT_NEAR(n[1], 0.5 / norm.angle_range, 1e-12);
  EXPECT_NEAR(n[3], 50.0 / norm.vown_range, 1e-12);
  EXPECT_THROW(normalize_features(Vec{1.0}), std::invalid_argument);

  const Box polar_box{Interval{7000.0, 8000.0}, Interval{-0.5, 0.5}, Interval{0.0, 0.1},
                      Interval{700.0}, Interval{600.0}};
  const Box nb = normalize_features(polar_box);
  EXPECT_TRUE(nb[0].contains((7500.0 - norm.rho_mean) / norm.rho_range));
}

}  // namespace
}  // namespace nncs::acasxu
