// Tests for the Taylor-mode interval arithmetic of the field tape's sweep:
// coefficients of known closed-form series, sampling-based containment of
// Horner evaluation, the exact-zero rules (a [0, 0] coefficient is skipped,
// never rounded), and what a pass writes and counts.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "ode/field_tape.hpp"
#include "ode/validated_integrator.hpp"
#include "series_reference.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

// The recording scalar reads no value, so a field cannot branch on one.
template <class T>
concept ComparesValues = requires(const T& a, double x) { a < x; } ||
                         requires(const T& a, double x) { a == x; } ||
                         requires(const T& a) { a < a; } || std::equality_comparable<T>;
static_assert(!std::is_convertible_v<TapeVar, double> &&
              !std::is_constructible_v<double, TapeVar>);
static_assert(!ComparesValues<TapeVar>);

using reference::TaylorSeries;

/// The series x0 + t.
TaylorSeries variable(std::size_t order, double x0) {
  TaylorSeries t(order, Interval{x0});
  if (order >= 1) {
    t[1] = Interval{1.0};
  }
  return t;
}

/// Records `f` over one state variable per input series and no command,
/// sweeps it for order + 1 passes from the inputs' coefficients, and
/// returns every output's coefficients.
template <class F>
std::vector<TaylorSeries> sweep_field(const F& f, const std::vector<TaylorSeries>& inputs) {
  const FieldTape tape = FieldTape::record(inputs.size(), 0, f);
  return reference::sweep(tape, inputs, inputs.front().order());
}

TEST(TaylorSeries, ConstantSeries) {
  // A constant stays constant through every operation: its higher
  // coefficients come out exactly [0, 0].
  const auto out = sweep_field(
      []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = s[0] * s[0] + Interval{3.0} * sin(s[0]) - Interval{1.0};
      },
      {TaylorSeries(4, Interval{2.5})});
  EXPECT_TRUE(out[0][0].contains(6.25 + 3.0 * std::sin(2.5) - 1.0));
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_TRUE(out[0][k].is_zero()) << k;
  }
}

TEST(TaylorSeries, AdditionIsCoefficientwise) {
  TaylorSeries a(2, Interval{1.0});
  a[1] = Interval{2.0};
  TaylorSeries b(2, Interval{3.0});
  b[2] = Interval{4.0};
  const auto out = sweep_field(
      []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = s[0] + s[1];
        r[1] = s[1];
      },
      {a, b});
  EXPECT_TRUE(out[0][0].contains(4.0));
  EXPECT_TRUE(out[0][1].contains(2.0));
  EXPECT_TRUE(out[0][2].contains(4.0));
}

TEST(TaylorSeries, OrderMismatchThrows) {
  // A pass needs a buffer of exactly nodes × stride coefficients and k below
  // the stride.
  const FieldTape tape = FieldTape::record(
      1, 0, []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = s[0] * s[0];
      });
  std::vector<Interval> coeffs(tape.nodes().size() * 3);
  EXPECT_NO_THROW(tape.pass(coeffs, 3, 2));
  EXPECT_THROW(tape.pass(coeffs, 3, 3), std::invalid_argument);
  EXPECT_THROW(tape.pass(coeffs, 4, 0), std::invalid_argument);
}

TEST(TaylorSeries, CauchyProductOfKnownSeries) {
  // (1 + t)^2 = 1 + 2t + t^2
  const auto out = sweep_field(
      []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = s[0] * s[0];
      },
      {variable(3, 1.0)});
  EXPECT_TRUE(out[0][0].contains(1.0));
  EXPECT_TRUE(out[0][1].contains(2.0));
  EXPECT_TRUE(out[0][2].contains(1.0));
  EXPECT_TRUE(out[0][3].contains(0.0));
}

TEST(TaylorSeries, ScalarOps) {
  const auto out = sweep_field(
      []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = Interval{3.0} * s[0] + Interval{1.0};
        r[1] = Interval{1.0} - s[0];
      },
      {variable(2, 0.0), TaylorSeries(2)});
  EXPECT_TRUE(out[0][0].contains(1.0));
  EXPECT_TRUE(out[0][1].contains(3.0));
  EXPECT_TRUE(out[1][0].contains(1.0));
  EXPECT_TRUE(out[1][1].contains(-1.0));
}

/// (sin, cos) of the one input.
constexpr auto kSinCos = []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
  const auto [sn, cs] = sincos(s[0]);
  r[0] = sn;
  r[1] = cs;
};

TEST(TaylorSeries, SinCosCoefficientsAtZero) {
  // sin(t) = t - t^3/6 ..., cos(t) = 1 - t^2/2 ...
  const auto out = sweep_field(kSinCos, {variable(4, 0.0), TaylorSeries(4)});
  const TaylorSeries& s = out[0];
  const TaylorSeries& c = out[1];
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
  const auto out = sweep_field(kSinCos, {variable(3, x0), TaylorSeries(3)});
  EXPECT_TRUE(out[0][0].contains(std::sin(x0)));
  EXPECT_TRUE(out[0][1].contains(std::cos(x0)));
  EXPECT_TRUE(out[1][1].contains(-std::sin(x0)));
  EXPECT_TRUE(out[0][2].contains(-std::sin(x0) / 2.0));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(TaylorSeries, SqrMatchesProduct) {
  TaylorSeries t = variable(3, 2.0);
  t[2] = Interval{0.5};
  const auto out = sweep_field(
      []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = sqr(s[0]);
        r[1] = s[0] * s[0];
      },
      {t, TaylorSeries(3)});
  for (std::size_t k = 0; k <= 3; ++k) {
    EXPECT_EQ(bits(out[0][k].lo()), bits(out[1][k].lo()));
    EXPECT_EQ(bits(out[0][k].hi()), bits(out[1][k].hi()));
  }
}

TEST(TaylorSeries, HornerEvaluation) {
  // p(t) = 1 + 2t + 3t^2 at t = [0, 0.5]
  const std::vector<Interval> p{Interval{1.0}, Interval{2.0}, Interval{3.0}};
  const Interval v = horner(p, Interval{0.0, 0.5});
  EXPECT_TRUE(v.contains(1.0));   // t = 0
  EXPECT_TRUE(v.contains(2.75));  // t = 0.5
  EXPECT_TRUE(v.contains(1.0 + 2.0 * 0.3 + 3.0 * 0.09));
  EXPECT_TRUE(horner({}, Interval{1.0}).is_zero());
}

TEST(TaylorSeries, PushBackRaisesOrder) {
  // Pass k writes coefficient k of the computed nodes and nothing else.
  const FieldTape tape = FieldTape::record(
      1, 1, []<class S>(std::span<const S> s, std::span<const S> u, std::span<S> r) {
        r[0] = sin(s[0]) * u[0] + Interval{2.0};
      });
  const std::size_t stride = 4;
  const Interval sentinel{12345.0};
  std::vector<Interval> coeffs(tape.nodes().size() * stride, sentinel);
  for (std::size_t k = 0; k < stride; ++k) {
    coeffs[k] = Interval{0.5 + static_cast<double>(k)};
    coeffs[stride + k] = Interval{k == 0 ? 1.0 : 0.0};
  }
  const std::size_t inputs = tape.state_dim() + tape.command_dim();
  for (std::size_t k = 0; k < stride; ++k) {
    tape.pass(coeffs, stride, k);
    for (std::size_t n = inputs; n < tape.nodes().size(); ++n) {
      for (std::size_t j = 0; j < stride; ++j) {
        EXPECT_EQ(coeffs[n * stride + j] == sentinel, j > k) << "node " << n << " pass " << k;
      }
    }
  }
}

TEST(TaylorSeries, OrderAboveCapThrows) {
  EXPECT_NO_THROW(TaylorIntegrator(TaylorIntegrator::Config{TaylorIntegrator::kMaxOrder, {}}));
  EXPECT_THROW(TaylorIntegrator(TaylorIntegrator::Config{TaylorIntegrator::kMaxOrder + 1, {}}),
               std::invalid_argument);
  const auto top = static_cast<std::size_t>(TaylorIntegrator::kMaxOrder);
  const auto out = sweep_field(kSinCos, {variable(top, 0.0), TaylorSeries(top)});
  EXPECT_EQ(out[0].order(), top);
  // sin t has t^15 coefficient −1/15!.
  EXPECT_LT(std::abs(out[0][top].mid() + 1.0 / 1307674368000.0), 1e-25);
}

/// The cap the integrator puts on a sweep's order.
constexpr auto kMaxOrder = static_cast<std::size_t>(TaylorIntegrator::kMaxOrder);

// Property: interval-coefficient Horner evaluation contains the pointwise
// evaluation for sampled coefficients and times.
TEST(TaylorSeriesProperty, EvalContainment) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t order = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<Interval> p(order + 1);
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
    ASSERT_TRUE(horner(p, Interval{t}).contains(truth));
  }
}

// Property: sincos of a perturbed series encloses the sin/cos composed
// series, whose low coefficients are known in closed form.
TEST(TaylorSeriesProperty, SinCosCompositionContainment) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    // u(t) = u0 + u1 t with sampled coefficients
    const double u0 = rng.uniform(-3.0, 3.0);
    const double u1 = rng.uniform(-2.0, 2.0);
    TaylorSeries u(3, Interval{u0});
    u[1] = Interval{u1};
    const auto out = sweep_field(kSinCos, {u, TaylorSeries(3)});
    const TaylorSeries& s = out[0];
    const TaylorSeries& c = out[1];
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

/// The point recurrences, in double, in the sweep's operation order.
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

/// Every operation of the sweep on inputs a = s[0] and b = s[1] with the
/// constant k: twelve outputs over twelve state inputs (the rest unused).
struct EveryOp {
  Interval k;
  template <class S>
  void operator()(std::span<const S> s, std::span<const S>, std::span<S> r) const {
    const S& a = s[0];
    const S& b = s[1];
    const auto [sin_a, cos_a] = sincos(a);
    r[0] = a * b;
    r[1] = a + b;
    r[2] = a - b;
    r[3] = -a;
    r[4] = k * a;
    r[5] = a * k;
    r[6] = a + k;
    r[7] = k + a;
    r[8] = a - k;
    r[9] = k - a;
    r[10] = sin_a;
    r[11] = cos_a;
  }
};

// Property: with exact-zero coefficient patterns, every sweep operation
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

    std::vector<TaylorSeries> inputs(12, TaylorSeries(order));
    inputs[0] = a;
    inputs[1] = b;
    const auto out = sweep_field(EveryOp{k}, inputs);
    const TaylorSeries& sin_a = out[10];
    const TaylorSeries& cos_a = out[11];
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
      expect_result("a*b", out[0], cauchy(pa, pb), cauchy_zeros(za, zb));
      expect_result("a+b", out[1],
                    pointwise(pa, [&](std::size_t i, double x) { return x + pb[i]; }), z_sum);
      expect_result("a-b", out[2],
                    pointwise(pa, [&](std::size_t i, double x) { return x - pb[i]; }), z_sum);
      expect_result("-a", out[3], pointwise(pa, [](std::size_t, double x) { return -x; }), za);
      const Coeffs scaled = pointwise(pa, [&](std::size_t, double x) { return pk * x; });
      expect_result("k*a", out[4], scaled, z_scaled);
      expect_result("a*k", out[5], scaled, z_scaled);
      const auto shift = [&](double sign_a, double sign_k) {
        return pointwise(pa, [&](std::size_t i, double x) {
          return i == 0 ? sign_a * x + sign_k * pk : sign_a * x;
        });
      };
      expect_result("a+k", out[6], shift(1.0, 1.0), z_shifted);
      expect_result("k+a", out[7], shift(1.0, 1.0), z_shifted);
      expect_result("a-k", out[8], shift(1.0, -1.0), z_shifted);
      expect_result("k-a", out[9], shift(-1.0, 1.0), z_shifted);
      const auto [ps, pc] = point_sincos(pa);
      expect_result("sin", sin_a, ps, z_sin);
      expect_result("cos", cos_a, pc, z_cos);
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

// Property: Horner evaluation encloses the sampled polynomial, is exactly
// [0, 0] for all-zero coefficients, and trailing zero coefficients change
// no bit (coefficients padded with zeros evaluate like their truncation).
TEST(TaylorSeriesProperty, EvalSkipsExactZeros) {
  Rng rng(7077);
  for (int trial = 0; trial < 300; ++trial) {
    const auto order = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<Interval> p(order + 1);
    for (Interval& c : p) {
      c = random_coefficient(rng);
    }
    const double t0 = rng.uniform(-1.0, 1.0);
    const Interval t =
        rng.chance(0.5) ? Interval{t0} : Interval{t0, t0 + rng.uniform(0.0, 0.5)};
    const Interval got = horner(p, t);
    for (int s = 0; s < 8; ++s) {
      Coeffs c(order + 1);
      for (std::size_t k = 0; k <= order; ++k) {
        c[k] = sample(rng, p[k]);
      }
      const double ts = rng.uniform(t.lo(), t.hi());
      double truth = c[order];
      for (std::size_t k = order; k-- > 0;) {
        truth = c[k] + ts * truth;
      }
      ASSERT_TRUE(got.contains(truth)) << got << " misses " << truth;
    }
    EXPECT_TRUE(horner(std::vector<Interval>(order + 1), t).is_zero());
    // Pad with zeros up to the largest order: the value keeps its bits.
    std::vector<Interval> padded = p;
    padded.resize(kMaxOrder + 1);
    const Interval padded_value = horner(padded, t);
    ASSERT_EQ(bits(padded_value.lo()), bits(got.lo()));
    ASSERT_EQ(bits(padded_value.hi()), bits(got.hi()));
  }
}

TEST(FieldTape, PassCountsItsProductTerms) {
  // One Cauchy product and one sin/cos pair: pass k sums k + 1 product
  // terms and, from k = 1 on, 2k recurrence terms.
  const FieldTape tape = FieldTape::record(
      2, 0, []<class S>(std::span<const S> s, std::span<const S>, std::span<S> r) {
        r[0] = s[0] * s[1];
        r[1] = cos(s[0]);
      });
  const std::size_t stride = 6;
  std::vector<Interval> coeffs(tape.nodes().size() * stride, Interval{0.5});
  for (std::size_t k = 0; k < stride; ++k) {
    EXPECT_EQ(tape.pass(coeffs, stride, k), (k + 1) + 2 * k) << k;
  }
}

TEST(FieldTape, PassCountsOneTermPerLinearNode) {
  // Every linear operation once (k − a records −a, then + k): a pass
  // computes one coefficient, one term, of each of the six nodes.
  const FieldTape tape = FieldTape::record(
      2, 1, []<class S>(std::span<const S> s, std::span<const S> u, std::span<S> r) {
        r[0] = (s[0] + s[1]) - Interval{2.0} * u[0];
        r[1] = (Interval{1.0} - s[1]) - Interval{0.5};
      });
  const std::size_t stride = 4;
  std::vector<Interval> coeffs(tape.nodes().size() * stride, Interval{0.5});
  for (std::size_t k = 0; k < stride; ++k) {
    EXPECT_EQ(tape.pass(coeffs, stride, k), 6U) << k;
  }
}

}  // namespace
}  // namespace nncs
