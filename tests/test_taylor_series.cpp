// Tests for the Taylor-mode interval arithmetic: coefficients of known
// closed-form series, sampling-based containment of polynomial evaluation,
// and the exact-zero rules (a [0, 0] coefficient is skipped, never rounded).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

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

// ---- Exact zeros ----------------------------------------------------------

using Coeffs = std::vector<double>;
using Zeros = std::vector<bool>;

/// Random coefficient: exactly [0, 0] with probability 0.4, else a
/// degenerate or narrow interval in [-2, 2].
Interval random_coefficient(Rng& rng) {
  if (rng.chance(0.4)) {
    return Interval{};
  }
  const double m = rng.uniform(-2.0, 2.0);
  if (rng.chance(0.3)) {
    return Interval{m};
  }
  return Interval{m - rng.uniform(0.0, 1e-3), m + rng.uniform(0.0, 1e-3)};
}

TaylorSeries random_series(Rng& rng, std::size_t order) {
  TaylorSeries s(order);
  for (std::size_t k = 0; k <= order; ++k) {
    s[k] = random_coefficient(rng);
  }
  return s;
}

double sample(Rng& rng, const Interval& x) {
  return x.is_zero() ? 0.0 : rng.uniform(x.lo(), x.hi());
}

Coeffs sample(Rng& rng, const TaylorSeries& s) {
  Coeffs p(s.order() + 1);
  for (std::size_t k = 0; k <= s.order(); ++k) {
    p[k] = sample(rng, s[k]);
  }
  return p;
}

Zeros zeros_of(const TaylorSeries& s) {
  Zeros z(s.order() + 1);
  for (std::size_t k = 0; k <= s.order(); ++k) {
    z[k] = s[k].is_zero();
  }
  return z;
}

/// The point recurrences, in double, in the series code's operation order.
Coeffs cauchy(const Coeffs& a, const Coeffs& b) {
  Coeffs r(a.size(), 0.0);
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t i = 0; i <= k; ++i) {
      r[k] += a[i] * b[k - i];
    }
  }
  return r;
}

std::pair<Coeffs, Coeffs> point_sincos(const Coeffs& u) {
  Coeffs s(u.size());
  Coeffs c(u.size());
  s[0] = std::sin(u[0]);
  c[0] = std::cos(u[0]);
  for (std::size_t k = 1; k < u.size(); ++k) {
    double s_acc = 0.0;
    double c_acc = 0.0;
    for (std::size_t j = 1; j <= k; ++j) {
      const double ju = static_cast<double>(j) * u[j];
      s_acc += ju * c[k - j];
      c_acc += ju * s[k - j];
    }
    s[k] = s_acc / static_cast<double>(k);
    c[k] = -(c_acc / static_cast<double>(k));
  }
  return {s, c};
}

template <class Op>
Coeffs pointwise(const Coeffs& a, Op op) {
  Coeffs r(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    r[k] = op(k, a[k]);
  }
  return r;
}

/// Structural zeros of a Cauchy product: every term has a zero factor.
Zeros cauchy_zeros(const Zeros& a, const Zeros& b) {
  Zeros z(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    z[k] = true;
    for (std::size_t i = 0; i <= k; ++i) {
      z[k] = z[k] && (a[i] || b[k - i]);
    }
  }
  return z;
}

void expect_result(const char* op, const TaylorSeries& got, const Coeffs& point,
                   const Zeros& zero) {
  for (std::size_t k = 0; k <= got.order(); ++k) {
    EXPECT_TRUE(got[k].contains(point[k]))
        << op << " coefficient " << k << ": " << got[k] << " misses " << point[k];
    if (zero[k]) {
      EXPECT_TRUE(got[k].is_zero()) << op << " coefficient " << k << " = " << got[k];
    }
  }
}

// Property: with exact-zero coefficient patterns, every series operation
// encloses its point recurrence at sampled points, and a coefficient whose
// every term has a [0, 0] factor comes out as exactly [0, 0].
TEST(TaylorSeriesProperty, ExactZerosStayExactAndResultsEnclose) {
  Rng rng(9091);
  for (int trial = 0; trial < 300; ++trial) {
    const auto order = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const TaylorSeries a = random_series(rng, order);
    const TaylorSeries b = random_series(rng, order);
    const Interval k = random_coefficient(rng);
    const Zeros za = zeros_of(a);
    const Zeros zb = zeros_of(b);
    const bool zk = k.is_zero();
    Zeros z_sum(order + 1);
    Zeros z_scaled(order + 1);
    Zeros z_shifted = za;
    for (std::size_t i = 0; i <= order; ++i) {
      z_sum[i] = za[i] && zb[i];
      z_scaled[i] = zk || za[i];
    }
    z_shifted[0] = za[0] && zk;

    const TaylorSeries prod = a * b;
    const TaylorSeries sum = a + b;
    const TaylorSeries diff = a - b;
    const TaylorSeries neg = -a;
    const TaylorSeries ka = k * a;
    const TaylorSeries ak = a * k;
    const TaylorSeries a_plus_k = a + k;
    const TaylorSeries k_plus_a = k + a;
    const TaylorSeries a_minus_k = a - k;
    const TaylorSeries k_minus_a = k - a;
    const auto [sin_a, cos_a] = sincos(a);
    Zeros z_sin(order + 1);
    Zeros z_cos(order + 1);
    z_sin[0] = sin_a[0].is_zero();
    z_cos[0] = cos_a[0].is_zero();
    for (std::size_t i = 1; i <= order; ++i) {
      z_sin[i] = true;
      z_cos[i] = true;
      for (std::size_t j = 1; j <= i; ++j) {
        z_sin[i] = z_sin[i] && (za[j] || z_cos[i - j]);
        z_cos[i] = z_cos[i] && (za[j] || z_sin[i - j]);
      }
    }

    for (int s = 0; s < 8; ++s) {
      const Coeffs pa = sample(rng, a);
      const Coeffs pb = sample(rng, b);
      const double pk = sample(rng, k);
      expect_result("a*b", prod, cauchy(pa, pb), cauchy_zeros(za, zb));
      expect_result("a+b", sum,
                    pointwise(pa, [&](std::size_t i, double x) { return x + pb[i]; }), z_sum);
      expect_result("a-b", diff,
                    pointwise(pa, [&](std::size_t i, double x) { return x - pb[i]; }), z_sum);
      expect_result("-a", neg, pointwise(pa, [](std::size_t, double x) { return -x; }), za);
      const Coeffs scaled = pointwise(pa, [&](std::size_t, double x) { return pk * x; });
      expect_result("k*a", ka, scaled, z_scaled);
      expect_result("a*k", ak, scaled, z_scaled);
      const auto shift = [&](double sign_a, double sign_k) {
        return pointwise(pa, [&](std::size_t i, double x) {
          return i == 0 ? sign_a * x + sign_k * pk : sign_a * x;
        });
      };
      expect_result("a+k", a_plus_k, shift(1.0, 1.0), z_shifted);
      expect_result("k+a", k_plus_a, shift(1.0, 1.0), z_shifted);
      expect_result("a-k", a_minus_k, shift(1.0, -1.0), z_shifted);
      expect_result("k-a", k_minus_a, shift(-1.0, 1.0), z_shifted);
      const auto [ps, pc] = point_sincos(pa);
      expect_result("sin", sin_a, ps, z_sin);
      expect_result("cos", cos_a, pc, z_cos);
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Property: Horner evaluation encloses the sampled polynomial, is exactly
// [0, 0] for an all-zero series, and trailing zero coefficients change no
// bit (a series padded with zeros evaluates like its truncation).
TEST(TaylorSeriesProperty, EvalSkipsExactZeros) {
  Rng rng(7077);
  for (int trial = 0; trial < 300; ++trial) {
    const auto order = static_cast<std::size_t>(rng.uniform_int(1, 8));
    TaylorSeries p = random_series(rng, order);
    const double t0 = rng.uniform(-1.0, 1.0);
    const Interval t =
        rng.chance(0.5) ? Interval{t0} : Interval{t0, t0 + rng.uniform(0.0, 0.5)};
    const Interval got = p.eval(t);
    for (int s = 0; s < 8; ++s) {
      const Coeffs c = sample(rng, p);
      const double ts = rng.uniform(t.lo(), t.hi());
      double truth = c[order];
      for (std::size_t k = order; k-- > 0;) {
        truth = c[k] + ts * truth;
      }
      ASSERT_TRUE(got.contains(truth)) << got << " misses " << truth;
    }
    const TaylorSeries zero(order);
    EXPECT_TRUE(zero.eval(t).is_zero());
    // Pad with zeros up to kMaxOrder: the value keeps its bits.
    TaylorSeries padded = p;
    while (padded.order() < TaylorSeries::kMaxOrder) {
      padded.push_back(Interval{});
    }
    const Interval padded_value = padded.eval(t);
    ASSERT_EQ(bits(padded_value.lo()), bits(got.lo()));
    ASSERT_EQ(bits(padded_value.hi()), bits(got.hi()));
  }
}

}  // namespace
}  // namespace nncs
