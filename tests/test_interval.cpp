// Unit and property tests for the outward-rounded interval arithmetic —
// the soundness substrate of the whole library. The key property, exercised
// by the parameterized sweeps: for every operation op and every sampled
// point x in [x] (and y in [y]), op(x, y) ∈ op#([x], [y]).

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "interval/interval.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Interval, DefaultIsZero) {
  const Interval x;
  EXPECT_EQ(x.lo(), 0.0);
  EXPECT_EQ(x.hi(), 0.0);
  EXPECT_TRUE(x.is_degenerate());
}

TEST(Interval, PointConstructorIsImplicitFromDouble) {
  const Interval x = 3.5;
  EXPECT_EQ(x.lo(), 3.5);
  EXPECT_EQ(x.hi(), 3.5);
}

TEST(Interval, RejectsInvertedBounds) {
  EXPECT_THROW(Interval(2.0, 1.0), std::invalid_argument);
}

TEST(Interval, RejectsNaNBounds) {
  const double nan = std::nan("");
  EXPECT_THROW(Interval(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(Interval(0.0, nan), std::invalid_argument);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// The outward-rounding steps work on the bit pattern; they must equal libm's
// nextafter bit for bit, and NaN must pass through as NaN.
TEST(Rounding, NextUpDownMatchNextafter) {
  Rng rng(7);
  std::vector<double> samples = {0.0,     -0.0,     DBL_MIN,      -DBL_MIN,
                                 DBL_MAX, -DBL_MAX, DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                 1.0,     -1.0,     rnd::kInf,    -rnd::kInf};
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.uniform(-1e9, 1e9) * std::pow(10.0, rng.uniform_int(-30, 30)));
  }
  for (const double x : samples) {
    EXPECT_EQ(bits_of(rnd::next_up(x)), bits_of(std::nextafter(x, rnd::kInf))) << x;
    EXPECT_EQ(bits_of(rnd::next_down(x)), bits_of(std::nextafter(x, -rnd::kInf))) << x;
  }
  // Without the NaN guard, next_up's integer step would turn the first NaN
  // into -0.0 and the second into -inf.
  for (const std::uint64_t nan_bits :
       {0x7fffffffffffffffULL, 0xfff0000000000001ULL, 0x7ff8000000000000ULL}) {
    const double nan = std::bit_cast<double>(nan_bits);
    EXPECT_TRUE(std::isnan(rnd::next_up(nan))) << std::hex << nan_bits;
    EXPECT_TRUE(std::isnan(rnd::next_down(nan))) << std::hex << nan_bits;
  }
}

TEST(Interval, EntireContainsEverything) {
  const Interval e = Interval::entire();
  EXPECT_TRUE(e.contains(0.0));
  EXPECT_TRUE(e.contains(-1e308));
  EXPECT_TRUE(e.contains(1e308));
  EXPECT_FALSE(e.is_finite());
}

TEST(Interval, CenteredIsOutwardRounded) {
  const Interval x = Interval::centered(1.0, 0.1);
  EXPECT_LE(x.lo(), 0.9);
  EXPECT_GE(x.hi(), 1.1);
  EXPECT_THROW(Interval::centered(0.0, -1.0), std::invalid_argument);
}

TEST(Interval, MidWidthRadMag) {
  const Interval x(1.0, 3.0);
  EXPECT_DOUBLE_EQ(x.mid(), 2.0);
  EXPECT_GE(x.width(), 2.0);
  EXPECT_GE(x.rad(), 1.0);
  EXPECT_EQ(x.mag(), 3.0);
  EXPECT_EQ(Interval(-5.0, 2.0).mag(), 5.0);
}

TEST(Interval, MidOfEntireIsFinite) {
  EXPECT_TRUE(std::isfinite(Interval::entire().mid()));
  EXPECT_TRUE(std::isfinite(Interval(-rnd::kInf, 3.0).mid()));
  EXPECT_TRUE(std::isfinite(Interval(3.0, rnd::kInf).mid()));
}

TEST(Interval, ContainsAndInterior) {
  const Interval x(0.0, 1.0);
  EXPECT_TRUE(x.contains(0.0));
  EXPECT_TRUE(x.contains(1.0));
  EXPECT_FALSE(x.contains(1.0001));
  EXPECT_TRUE(x.contains(Interval(0.2, 0.8)));
  EXPECT_TRUE(x.contains(x));
  EXPECT_FALSE(x.contains_in_interior(x));
  EXPECT_TRUE(x.contains_in_interior(Interval(0.2, 0.8)));
}

TEST(Interval, IntersectsAndIntersect) {
  EXPECT_TRUE(Interval(0.0, 1.0).intersects(Interval(1.0, 2.0)));
  EXPECT_FALSE(Interval(0.0, 1.0).intersects(Interval(1.1, 2.0)));
  const auto meet = intersect(Interval(0.0, 1.0), Interval(0.5, 2.0));
  ASSERT_TRUE(meet.has_value());
  EXPECT_EQ(meet->lo(), 0.5);
  EXPECT_EQ(meet->hi(), 1.0);
  EXPECT_FALSE(intersect(Interval(0.0, 1.0), Interval(2.0, 3.0)).has_value());
}

TEST(Interval, HullIsSmallestCover) {
  const Interval h = hull(Interval(0.0, 1.0), Interval(3.0, 4.0));
  EXPECT_EQ(h.lo(), 0.0);
  EXPECT_EQ(h.hi(), 4.0);
}

TEST(Interval, AdditionEnclosesAndRoundsOutward) {
  const Interval x(0.1, 0.2);
  const Interval y(0.3, 0.4);
  const Interval s = x + y;
  EXPECT_LE(s.lo(), 0.1 + 0.3);
  EXPECT_GE(s.hi(), 0.2 + 0.4);
}

TEST(Interval, SubtractionAntisymmetric) {
  const Interval x(1.0, 2.0);
  const Interval d = x - x;
  // x - x is not {0} in interval arithmetic (dependency problem) but must
  // contain 0 and be symmetric.
  EXPECT_TRUE(d.contains(0.0));
  EXPECT_LE(d.lo(), -1.0);
  EXPECT_GE(d.hi(), 1.0);
}

/// The plain outward-rounded difference, bound by bound: what every case
/// outside the degenerate x - x rule returns.
std::pair<double, double> outward_difference(const Interval& a, const Interval& b) {
  return {rnd::sub_down(a.lo(), b.hi()), rnd::sub_up(a.hi(), b.lo())};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Interval, DegenerateSelfDifferenceIsExactZero) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double v : {600.0, -3.5, 0.0, -0.0, 1e308, -1e-300, tiny}) {
    const Interval d = Interval{v} - Interval{v};
    EXPECT_EQ(d.lo(), 0.0) << v;
    EXPECT_EQ(d.hi(), 0.0) << v;
    EXPECT_TRUE(d.is_zero()) << v;
  }
}

TEST(Interval, OtherDifferencesStayOutward) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<Interval, Interval> cases[] = {
      {Interval{1.0, 2.0}, Interval{1.0, 2.0}},            // non-degenerate x - x
      {Interval{inf}, Interval{inf}},                      // ∞ − ∞
      {Interval{-inf}, Interval{-inf}},                    // −∞ − (−∞)
      {Interval{1.0}, Interval{2.0}},                      // unequal degenerate
      {Interval{0.1}, Interval{std::nextafter(0.1, 1.0)}}  // one ulp apart
  };
  for (const auto& [a, b] : cases) {
    const Interval d = a - b;
    const auto [lo, hi] = outward_difference(a, b);
    EXPECT_TRUE(same_bits(d.lo(), lo) && same_bits(d.hi(), hi))
        << a << " - " << b << " = " << d;
    EXPECT_FALSE(d.is_zero()) << a << " - " << b;
  }
}

TEST(Interval, MultiplicationSignCases) {
  EXPECT_TRUE((Interval(2.0, 3.0) * Interval(4.0, 5.0)).contains(Interval(8.0, 15.0)));
  EXPECT_TRUE((Interval(-3.0, -2.0) * Interval(4.0, 5.0)).contains(Interval(-15.0, -8.0)));
  EXPECT_TRUE((Interval(-2.0, 3.0) * Interval(-5.0, 4.0)).contains(Interval(-15.0, 12.0)));
}

TEST(Interval, MultiplicationZeroTimesEntireIsZeroish) {
  const Interval z = Interval{0.0} * Interval::entire();
  EXPECT_TRUE(z.contains(0.0));
  EXPECT_TRUE(z.is_finite());
}

TEST(Interval, DivisionByZeroThrows) {
  EXPECT_THROW(Interval(1.0) / Interval(-1.0, 1.0), std::domain_error);
  EXPECT_THROW(Interval(1.0) / Interval(0.0), std::domain_error);
}

TEST(Interval, ZeroDividedIsExactZero) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Interval& b : {Interval{3.0}, Interval{-7.0}, Interval{0.5, 2.0},
                            Interval{-2.0, -1e-300}, Interval{1.0, inf},
                            Interval{-inf, -4.0}}) {
    for (const Interval& zero : {Interval{0.0}, Interval{-0.0}}) {
      const Interval q = zero / b;
      EXPECT_EQ(q.lo(), 0.0) << b;
      EXPECT_EQ(q.hi(), 0.0) << b;
    }
  }
}

TEST(Interval, ZeroDividedByIntervalContainingZeroThrows) {
  for (const Interval& b :
       {Interval{0.0}, Interval{-1.0, 1.0}, Interval{0.0, 2.0}, Interval{-3.0, 0.0}}) {
    EXPECT_THROW(Interval{0.0} / b, std::domain_error) << b;
  }
}

TEST(Interval, DivisionEncloses) {
  const Interval q = Interval(1.0, 2.0) / Interval(4.0, 8.0);
  EXPECT_LE(q.lo(), 0.125);
  EXPECT_GE(q.hi(), 0.5);
}

TEST(Interval, SqrNeverNegative) {
  const Interval s = sqr(Interval(-2.0, 3.0));
  EXPECT_EQ(s.lo(), 0.0);
  EXPECT_GE(s.hi(), 9.0);
  EXPECT_GE(sqr(Interval(-3.0, -2.0)).lo(), 3.9);
}

TEST(Interval, SqrTighterThanSelfMultiplication) {
  const Interval x(-2.0, 3.0);
  const Interval via_mul = x * x;  // [-6, 9]: dependency lost
  const Interval via_sqr = sqr(x);
  EXPECT_LT(via_sqr.width(), via_mul.width());
}

TEST(Interval, SqrtDomain) {
  EXPECT_THROW(sqrt(Interval(-2.0, -1.0)), std::domain_error);
  const Interval r = sqrt(Interval(-0.5, 4.0));  // clamps to [0, 4]
  EXPECT_EQ(r.lo(), 0.0);
  EXPECT_GE(r.hi(), 2.0);
}

TEST(Interval, AbsCases) {
  EXPECT_EQ(abs(Interval(2.0, 3.0)).lo(), 2.0);
  EXPECT_EQ(abs(Interval(-3.0, -2.0)).lo(), 2.0);
  const Interval a = abs(Interval(-2.0, 3.0));
  EXPECT_EQ(a.lo(), 0.0);
  EXPECT_EQ(a.hi(), 3.0);
}

TEST(Interval, PowSpecialCases) {
  EXPECT_EQ(pow(Interval(2.0, 3.0), 0).lo(), 1.0);
  EXPECT_TRUE(pow(Interval(-2.0, 3.0), 2).lo() >= 0.0);
  EXPECT_TRUE(pow(Interval(2.0), 10).contains(1024.0));
  EXPECT_THROW(pow(Interval(1.0), -1), std::domain_error);
}

TEST(Interval, ExpLogMonotone) {
  const Interval e = exp(Interval(0.0, 1.0));
  EXPECT_LE(e.lo(), 1.0);
  EXPECT_GE(e.hi(), std::exp(1.0));
  const Interval l = log(Interval(1.0, std::exp(2.0)));
  EXPECT_LE(l.lo(), 0.0);
  EXPECT_GE(l.hi(), 2.0);
  EXPECT_THROW(log(Interval(-2.0, -1.0)), std::domain_error);
  EXPECT_EQ(log(Interval(0.0, 1.0)).lo(), -rnd::kInf);
}

TEST(Interval, SinCapturesInteriorExtremum) {
  // [0, pi] contains the max at pi/2.
  const Interval s = sin(Interval(0.0, kPi));
  EXPECT_EQ(s.hi(), 1.0);
  EXPECT_LE(s.lo(), 0.0);
  // [pi, 2pi] contains the min at 3pi/2.
  EXPECT_EQ(sin(Interval(kPi, 2.0 * kPi)).lo(), -1.0);
}

TEST(Interval, SinNarrowIntervalStaysTight) {
  const Interval s = sin(Interval(0.1, 0.2));
  EXPECT_GT(s.lo(), 0.09);
  EXPECT_LT(s.hi(), 0.20);
}

TEST(Interval, CosCapturesInteriorExtremum) {
  EXPECT_EQ(cos(Interval(-0.5, 0.5)).hi(), 1.0);          // max at 0
  EXPECT_EQ(cos(Interval(3.0, 3.5)).lo(), -1.0);          // min at pi
  EXPECT_EQ(cos(Interval(0.0, 7.0)).lo(), -1.0);          // width >= 2pi
  EXPECT_EQ(cos(Interval(0.0, 7.0)).hi(), 1.0);
}

TEST(Interval, TrigHugeArgumentFallsBackToUnit) {
  const Interval s = sin(Interval(1e13, 1e13 + 1.0));
  EXPECT_EQ(s.lo(), -1.0);
  EXPECT_EQ(s.hi(), 1.0);
}

TEST(Interval, AtanMonotone) {
  const Interval a = atan(Interval(-1.0, 1.0));
  EXPECT_LE(a.lo(), -kPi / 4.0);
  EXPECT_GE(a.hi(), kPi / 4.0);
}

TEST(Interval, AtanClampsToTightHalfPi) {
  // Regression: atan used to clamp its saturation bound to a loose +/- 2.0.
  // The enclosure must stay inside the outward-rounded pi/2 derived from
  // pi_interval() (halving by 0.5 is exact, so this bound is < 1 ulp loose)
  // even for huge arguments where libm saturates and the kLibmUlps widening
  // would otherwise overshoot.
  const double half_pi_hi = pi_interval().hi() * 0.5;
  const Interval a = atan(Interval(-1e300, 1e300));
  EXPECT_LE(a.hi(), half_pi_hi);
  EXPECT_GE(a.lo(), -half_pi_hi);
  // Still a genuine enclosure of (-pi/2, pi/2), not an over-tight one.
  EXPECT_GT(a.hi(), 1.5707);
  EXPECT_LT(a.lo(), -1.5707);
}

TEST(Interval, Atan2QuadrantBox) {
  // Box strictly in the first quadrant: tight corner-based result.
  const Interval a = atan2(Interval(1.0, 2.0), Interval(1.0, 2.0));
  EXPECT_GT(a.lo(), 0.4);
  EXPECT_LT(a.hi(), 1.2);
}

TEST(Interval, Atan2OriginGivesFullRange) {
  const Interval a = atan2(Interval(-1.0, 1.0), Interval(-1.0, 1.0));
  EXPECT_LE(a.lo(), -kPi);
  EXPECT_GE(a.hi(), kPi);
}

TEST(Interval, Atan2BranchCutGivesFullRange) {
  // y spans 0 while x can be negative: result must cover ±pi.
  const Interval a = atan2(Interval(-0.1, 0.1), Interval(-2.0, -1.0));
  EXPECT_LE(a.lo(), -3.14);
  EXPECT_GE(a.hi(), 3.14);
}

TEST(Interval, Atan2RightHalfPlaneCrossingYZero) {
  // x > 0, y spans 0: continuous region, small angles.
  const Interval a = atan2(Interval(-1.0, 1.0), Interval(1.0, 2.0));
  EXPECT_LT(a.hi(), kPi / 2.0 + 0.01);
  EXPECT_GT(a.lo(), -kPi / 2.0 - 0.01);
  EXPECT_TRUE(a.contains(0.0));
}

TEST(Interval, MinMax) {
  const Interval m = min(Interval(0.0, 3.0), Interval(1.0, 2.0));
  EXPECT_EQ(m.lo(), 0.0);
  EXPECT_EQ(m.hi(), 2.0);
  const Interval M = max(Interval(0.0, 3.0), Interval(1.0, 2.0));
  EXPECT_EQ(M.lo(), 1.0);
  EXPECT_EQ(M.hi(), 3.0);
}

TEST(Interval, PiEnclosesTruePi) {
  const Interval pi = pi_interval();
  EXPECT_LE(pi.lo(), kPi);
  EXPECT_GE(pi.hi(), kPi);
  EXPECT_LT(pi.width(), 1e-15);
}

TEST(Interval, InflatedGrowsOutward) {
  const Interval x = Interval(1.0, 2.0).inflated(0.5);
  EXPECT_LE(x.lo(), 0.5);
  EXPECT_GE(x.hi(), 2.5);
  EXPECT_THROW((void)Interval(0.0).inflated(-1.0), std::invalid_argument);
}

TEST(Interval, StreamOutput) {
  EXPECT_EQ(Interval(1.0, 2.0).str(), "[1, 2]");
}

// ---------------------------------------------------------------------------
// Property sweeps: random sampling containment for every operation.
// ---------------------------------------------------------------------------

struct OpCase {
  const char* name;
  // Interval operation and its pointwise counterpart.
  Interval (*op)(const Interval&, const Interval&);
  double (*ref)(double, double);
  // Operand domain.
  double lo, hi;
  bool binary;
  bool positive_rhs;  // restrict second operand to positive values
};

// Without a printer gtest dumps the raw bytes of the parameter, name pointer
// and padding included, into the listed test name, so the ctest name would
// change from run to run. Print the case name instead.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class IntervalContainment : public ::testing::TestWithParam<OpCase> {};

TEST_P(IntervalContainment, RandomSamplesStayInside) {
  const OpCase& c = GetParam();
  Rng rng(12345);
  for (int trial = 0; trial < 300; ++trial) {
    double a = rng.uniform(c.lo, c.hi);
    double b = rng.uniform(c.lo, c.hi);
    if (a > b) {
      std::swap(a, b);
    }
    double a2 = rng.uniform(c.positive_rhs ? 0.1 : c.lo, c.hi);
    double b2 = rng.uniform(c.positive_rhs ? 0.1 : c.lo, c.hi);
    if (a2 > b2) {
      std::swap(a2, b2);
    }
    const Interval x(a, b);
    const Interval y(a2, b2);
    const Interval result = c.op(x, y);
    for (int s = 0; s < 20; ++s) {
      const double px = rng.uniform(a, b);
      const double py = rng.uniform(a2, b2);
      const double truth = c.binary ? c.ref(px, py) : c.ref(px, 0.0);
      ASSERT_TRUE(result.contains(truth))
          << c.name << ": " << truth << " not in " << result.str() << " for x=" << px
          << " y=" << py;
    }
  }
}

Interval op_add(const Interval& a, const Interval& b) { return a + b; }
Interval op_sub(const Interval& a, const Interval& b) { return a - b; }
Interval op_mul(const Interval& a, const Interval& b) { return a * b; }
Interval op_div(const Interval& a, const Interval& b) { return a / b; }
Interval op_sqr(const Interval& a, const Interval&) { return sqr(a); }
Interval op_sin(const Interval& a, const Interval&) { return sin(a); }
Interval op_cos(const Interval& a, const Interval&) { return cos(a); }
Interval op_exp(const Interval& a, const Interval&) { return exp(a); }
Interval op_atan(const Interval& a, const Interval&) { return atan(a); }
Interval op_atan2(const Interval& a, const Interval& b) { return atan2(a, b); }
Interval op_pow3(const Interval& a, const Interval&) { return pow(a, 3); }

double ref_add(double a, double b) { return a + b; }
double ref_sub(double a, double b) { return a - b; }
double ref_mul(double a, double b) { return a * b; }
double ref_div(double a, double b) { return a / b; }
double ref_sqr(double a, double) { return a * a; }
double ref_sin(double a, double) { return std::sin(a); }
double ref_cos(double a, double) { return std::cos(a); }
double ref_exp(double a, double) { return std::exp(a); }
double ref_atan(double a, double) { return std::atan(a); }
double ref_atan2(double a, double b) { return std::atan2(a, b); }
double ref_pow3(double a, double) { return a * a * a; }

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntervalContainment,
    ::testing::Values(
        OpCase{"add", op_add, ref_add, -100.0, 100.0, true, false},
        OpCase{"sub", op_sub, ref_sub, -100.0, 100.0, true, false},
        OpCase{"mul", op_mul, ref_mul, -50.0, 50.0, true, false},
        OpCase{"div", op_div, ref_div, -50.0, 50.0, true, true},
        OpCase{"sqr", op_sqr, ref_sqr, -30.0, 30.0, false, false},
        OpCase{"sin", op_sin, ref_sin, -10.0, 10.0, false, false},
        OpCase{"cos", op_cos, ref_cos, -10.0, 10.0, false, false},
        OpCase{"exp", op_exp, ref_exp, -5.0, 5.0, false, false},
        OpCase{"atan", op_atan, ref_atan, -20.0, 20.0, false, false},
        OpCase{"atan2", op_atan2, ref_atan2, -20.0, 20.0, true, false},
        OpCase{"pow3", op_pow3, ref_pow3, -10.0, 10.0, false, false}),
    [](const auto& param_info) { return param_info.param.name; });

// sqrt needs a non-negative domain; tested separately.
TEST(IntervalProperty, SqrtContainment) {
  Rng rng(999);
  for (int trial = 0; trial < 300; ++trial) {
    double a = rng.uniform(0.0, 1000.0);
    double b = rng.uniform(0.0, 1000.0);
    if (a > b) {
      std::swap(a, b);
    }
    const Interval r = sqrt(Interval(a, b));
    for (int s = 0; s < 20; ++s) {
      const double p = rng.uniform(a, b);
      ASSERT_TRUE(r.contains(std::sqrt(p)));
    }
  }
}

// Composition property: long random expression chains keep containment.
TEST(IntervalProperty, RandomExpressionChainContainment) {
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    double lo = rng.uniform(-2.0, 0.0);
    double hi = lo + rng.uniform(0.0, 1.0);
    const Interval x(lo, hi);
    const double p = rng.uniform(lo, hi);
    // f(x) = sin(x)*cos(x) + sqr(x)/(2 + exp(x))
    const Interval fx = sin(x) * cos(x) + sqr(x) / (Interval{2.0} + exp(x));
    const double fp = std::sin(p) * std::cos(p) + p * p / (2.0 + std::exp(p));
    ASSERT_TRUE(fx.contains(fp)) << fx.str() << " vs " << fp;
  }
}

}  // namespace
}  // namespace nncs
