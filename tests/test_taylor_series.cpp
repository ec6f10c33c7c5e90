// Tests for the Taylor-mode interval arithmetic: coefficients of known
// closed-form series plus sampling-based containment of polynomial
// evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ode/taylor_series.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

TaylorSeries variable(std::size_t order, double x0) {
  TaylorSeries t(order, Interval{x0});
  if (order >= 1) {
    t[1] = Interval{1.0};
  }
  return t;
}

TEST(TaylorSeries, ConstantSeries) {
  const TaylorSeries c(4, Interval{2.5});
  EXPECT_EQ(c.order(), 4u);
  EXPECT_EQ(c[0].lo(), 2.5);
  EXPECT_EQ(c[1].lo(), 0.0);
}

TEST(TaylorSeries, AdditionIsCoefficientwise) {
  TaylorSeries a(2, Interval{1.0});
  a[1] = Interval{2.0};
  TaylorSeries b(2, Interval{3.0});
  b[2] = Interval{4.0};
  const TaylorSeries s = a + b;
  EXPECT_TRUE(s[0].contains(4.0));
  EXPECT_TRUE(s[1].contains(2.0));
  EXPECT_TRUE(s[2].contains(4.0));
}

TEST(TaylorSeries, OrderMismatchThrows) {
  EXPECT_THROW(TaylorSeries(2) + TaylorSeries(3), std::invalid_argument);
}

TEST(TaylorSeries, CauchyProductOfKnownSeries) {
  // (1 + t)^2 = 1 + 2t + t^2
  const TaylorSeries one_plus_t = variable(3, 1.0);
  const TaylorSeries square = one_plus_t * one_plus_t;
  EXPECT_TRUE(square[0].contains(1.0));
  EXPECT_TRUE(square[1].contains(2.0));
  EXPECT_TRUE(square[2].contains(1.0));
  EXPECT_TRUE(square[3].contains(0.0));
}

TEST(TaylorSeries, ScalarOps) {
  const TaylorSeries t = variable(2, 0.0);
  const TaylorSeries y = Interval{3.0} * t + Interval{1.0};
  EXPECT_TRUE(y[0].contains(1.0));
  EXPECT_TRUE(y[1].contains(3.0));
  const TaylorSeries z = Interval{1.0} - t;
  EXPECT_TRUE(z[0].contains(1.0));
  EXPECT_TRUE(z[1].contains(-1.0));
}

TEST(TaylorSeries, SinCosCoefficientsAtZero) {
  // sin(t) = t - t^3/6 ..., cos(t) = 1 - t^2/2 ...
  const TaylorSeries t = variable(4, 0.0);
  const auto [s, c] = sincos(t);
  EXPECT_TRUE(s[0].contains(0.0));
  EXPECT_TRUE(s[1].contains(1.0));
  EXPECT_TRUE(s[2].contains(0.0));
  EXPECT_TRUE(s[3].contains(-1.0 / 6.0));
  EXPECT_TRUE(c[0].contains(1.0));
  EXPECT_TRUE(c[1].contains(0.0));
  EXPECT_TRUE(c[2].contains(-0.5));
  EXPECT_TRUE(c[4].contains(1.0 / 24.0));
}

TEST(TaylorSeries, SinCosAtNonzeroPoint) {
  const double x0 = 0.7;
  const TaylorSeries t = variable(3, x0);
  const auto [s, c] = sincos(t);
  EXPECT_TRUE(s[0].contains(std::sin(x0)));
  EXPECT_TRUE(s[1].contains(std::cos(x0)));
  EXPECT_TRUE(c[1].contains(-std::sin(x0)));
  EXPECT_TRUE(s[2].contains(-std::sin(x0) / 2.0));
}

TEST(TaylorSeries, SqrMatchesProduct) {
  TaylorSeries t = variable(3, 2.0);
  t[2] = Interval{0.5};
  const TaylorSeries a = sqr(t);
  const TaylorSeries b = t * t;
  for (std::size_t k = 0; k <= 3; ++k) {
    EXPECT_TRUE(a[k].contains(b[k].mid()));
  }
}

TEST(TaylorSeries, HornerEvaluation) {
  // p(t) = 1 + 2t + 3t^2 at t = [0, 0.5]
  TaylorSeries p(2, Interval{1.0});
  p[1] = Interval{2.0};
  p[2] = Interval{3.0};
  const Interval v = p.eval(Interval{0.0, 0.5});
  EXPECT_TRUE(v.contains(1.0));       // t = 0
  EXPECT_TRUE(v.contains(2.75));      // t = 0.5
  EXPECT_TRUE(v.contains(1.0 + 2.0 * 0.3 + 3.0 * 0.09));
}

TEST(TaylorSeries, PushBackRaisesOrder) {
  TaylorSeries p(0, Interval{1.0});
  p.push_back(Interval{2.0});
  p.push_back(Interval{3.0});
  EXPECT_EQ(p.order(), 2u);
  EXPECT_EQ(p[2], Interval{3.0});
  EXPECT_TRUE(p.eval(Interval{1.0}).contains(6.0));
}

TEST(TaylorSeries, OrderAboveCapThrows) {
  TaylorSeries full(TaylorSeries::kMaxOrder);
  EXPECT_EQ(full.order(), TaylorSeries::kMaxOrder);
  EXPECT_THROW(full.push_back(Interval{}), std::invalid_argument);
  EXPECT_THROW(TaylorSeries(TaylorSeries::kMaxOrder + 1), std::invalid_argument);
}

// Property: interval-coefficient polynomial evaluation contains the
// pointwise evaluation for sampled coefficients and times.
TEST(TaylorSeriesProperty, EvalContainment) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t order = static_cast<std::size_t>(rng.uniform_int(1, 6));
    TaylorSeries p(order);
    std::vector<double> coeff(order + 1);
    for (std::size_t k = 0; k <= order; ++k) {
      coeff[k] = rng.uniform(-3.0, 3.0);
      p[k] = Interval::centered(coeff[k], 1e-6);
    }
    const double t = rng.uniform(-1.0, 1.0);
    double truth = 0.0;
    for (std::size_t k = order + 1; k-- > 0;) {
      truth = coeff[k] + t * truth;
    }
    ASSERT_TRUE(p.eval(Interval{t}).contains(truth));
  }
}

// Property: sincos of a perturbed series encloses sin/cos composed series
// sampled pointwise via high-order finite differencing of the composition.
TEST(TaylorSeriesProperty, SinCosCompositionContainment) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    // u(t) = u0 + u1 t with sampled coefficients
    const double u0 = rng.uniform(-3.0, 3.0);
    const double u1 = rng.uniform(-2.0, 2.0);
    TaylorSeries u(3, Interval{u0});
    u[1] = Interval{u1};
    const auto [s, c] = sincos(u);
    // Exact derivatives of sin(u0 + u1 t) at t=0:
    // d/dt = u1 cos(u0); d2/dt2 = -u1^2 sin(u0)
    EXPECT_TRUE(s[0].contains(std::sin(u0)));
    EXPECT_TRUE(s[1].contains(u1 * std::cos(u0)));
    EXPECT_TRUE(s[2].contains(-u1 * u1 * std::sin(u0) / 2.0));
    EXPECT_TRUE(c[0].contains(std::cos(u0)));
    EXPECT_TRUE(c[1].contains(-u1 * std::sin(u0)));
    EXPECT_TRUE(c[2].contains(-u1 * u1 * std::cos(u0) / 2.0));
  }
}

}  // namespace
}  // namespace nncs
