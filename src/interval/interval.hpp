#pragma once

#include <algorithm>
#include <cmath>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "interval/rounding.hpp"

namespace nncs {

/// Closed real interval [lo, hi] with outward-rounded arithmetic.
///
/// This is the soundness boundary of the whole library: every quantity that
/// feeds a safety verdict (validated ODE enclosures, abstract network
/// outputs, error/target set tests) is represented as an `Interval`, and
/// every operation over-approximates the true real-arithmetic image
/// (see `rounding.hpp` for the rounding model). A few operations return an
/// exact identity instead of rounding (documented at each operator): a
/// result that is exactly 0 stays [0, 0] rather than widening to
/// [-4.9e-324, 4.9e-324], whose subnormal bounds make every later product
/// take the CPU's slow path.
///
/// Invariants: `lo() <= hi()`, neither bound is NaN. Infinite bounds are
/// allowed (`Interval::entire()`). There is no empty interval; operations
/// that can produce an empty result (`intersect`) return `std::optional`.
class Interval {
 public:
  /// The degenerate interval [0, 0].
  constexpr Interval() : lo_(0.0), hi_(0.0) {}

  /// The degenerate interval [v, v]. Implicit so doubles mix naturally with
  /// intervals in generic (templated-scalar) dynamics code.
  constexpr Interval(double v) : lo_(v), hi_(v) {}  // NOLINT(google-explicit-constructor)

  /// The interval [lo, hi]. Throws `std::invalid_argument` if lo > hi or a
  /// bound is NaN.
  Interval(double lo, double hi);

  /// [-inf, +inf].
  static Interval entire();

  /// [v - radius, v + radius] with outward rounding; radius must be >= 0.
  static Interval centered(double v, double radius);

  [[nodiscard]] constexpr double lo() const { return lo_; }
  [[nodiscard]] constexpr double hi() const { return hi_; }

  /// Midpoint, rounded to nearest (a *representative*, not a bound).
  [[nodiscard]] double mid() const;

  /// Upper bound on the width hi - lo.
  [[nodiscard]] double width() const { return rnd::sub_up(hi_, lo_); }

  /// Upper bound on the radius (half-width).
  [[nodiscard]] double rad() const;

  /// Largest absolute value of the interval: max(|lo|, |hi|).
  [[nodiscard]] double mag() const;

  [[nodiscard]] bool is_degenerate() const { return lo_ == hi_; }
  /// True for exactly [0, 0] (either sign of zero).
  [[nodiscard]] bool is_zero() const { return lo_ == 0.0 && hi_ == 0.0; }
  [[nodiscard]] bool is_finite() const;

  [[nodiscard]] bool contains(double v) const { return lo_ <= v && v <= hi_; }
  [[nodiscard]] bool contains(const Interval& other) const {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }
  /// Strict containment in the interior (needed by the Picard fixed-point
  /// test: f([B]) must land strictly inside the candidate).
  [[nodiscard]] bool contains_in_interior(const Interval& other) const {
    return lo_ < other.lo_ && other.hi_ < hi_;
  }
  [[nodiscard]] bool intersects(const Interval& other) const {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  /// Exact bound equality (use sparingly; mostly for tests).
  bool operator==(const Interval& other) const = default;

  Interval operator-() const { return Interval{-hi_, -lo_, Unchecked{}}; }

  Interval& operator+=(const Interval& rhs);
  Interval& operator-=(const Interval& rhs);
  Interval& operator*=(const Interval& rhs);
  Interval& operator/=(const Interval& rhs);

  /// Widen both bounds outward by an absolute `delta` >= 0.
  [[nodiscard]] Interval inflated(double delta) const;

  [[nodiscard]] std::string str() const;

 private:
  struct Unchecked {};
  constexpr Interval(double lo, double hi, Unchecked) : lo_(lo), hi_(hi) {}

  friend Interval make_unchecked(double lo, double hi);

  double lo_;
  double hi_;
};

/// Internal factory skipping invariant checks (bounds already validated).
inline Interval make_unchecked(double lo, double hi) {
  return Interval{lo, hi, Interval::Unchecked{}};
}

// The arithmetic operators and `is_finite` are always inlined: most calls
// take an exact-zero or exact-one fast path, cheaper than a call. Always, as
// rounding.hpp says of `next_up`: the AVX2 kernel unit includes this header
// under -mavx2 -mfma, and an out-of-line copy emitted there could be the one
// the linker binds every other caller to.

/// Unrounded product of two interval bounds under the interval-arithmetic
/// convention 0 * inf = 0 (a zero factor annihilates regardless of the other
/// bound): the corners of `operator*`.
[[gnu::always_inline]] inline double corner_mul(double a, double b) {
  const double p = a * b;
  if (std::isnan(p)) {
    return 0.0;
  }
  return p;
}

/// Throws the `std::domain_error` of a division by `b`, which contains zero.
[[noreturn]] void throw_zero_divisor(const Interval& b);

[[gnu::always_inline]] inline bool Interval::is_finite() const {
  return std::isfinite(lo_) && std::isfinite(hi_);
}

/// Sum, rounded outward by one ulp per bound, even when one side is
/// [0, 0]: this operator has no zero test, because the NN transformers'
/// accumulations would pay for the branch. Callers that produce exact zeros
/// (the Taylor series) skip them themselves.
[[gnu::always_inline]] inline Interval operator+(const Interval& a, const Interval& b) {
  return make_unchecked(rnd::add_down(a.lo(), b.lo()), rnd::add_up(a.hi(), b.hi()));
}

/// Difference, rounded outward; x - x is exactly [0, 0] when x is
/// degenerate and finite (a feature normalized at its own mean).
[[gnu::always_inline]] inline Interval operator-(const Interval& a, const Interval& b) {
  if (a.is_degenerate() && a == b && std::isfinite(a.lo())) {
    return Interval{};
  }
  return make_unchecked(rnd::sub_down(a.lo(), b.hi()), rnd::sub_up(a.hi(), b.lo()));
}

/// Product, rounded outward; a degenerate 1 returns the other operand and
/// a degenerate 0 times a finite operand returns [0, 0], both exactly.
[[gnu::always_inline]] inline Interval operator*(const Interval& a, const Interval& b) {
  // Exact identities: keep multiplications by the degenerate 0 and 1 exact
  // (no outward rounding). These flow through constantly in network
  // propagation and polynomial evaluation, and the exactness preserves
  // invariants like sqr(x) >= 0 through pow().
  if (a.lo() == a.hi()) {
    if (a.lo() == 1.0) {
      return b;
    }
    if (a.lo() == 0.0 && b.is_finite()) {
      return Interval{};
    }
  }
  if (b.lo() == b.hi()) {
    if (b.lo() == 1.0) {
      return a;
    }
    if (b.lo() == 0.0 && a.is_finite()) {
      return Interval{};
    }
  }
  const double c1 = corner_mul(a.lo(), b.lo());
  const double c2 = corner_mul(a.lo(), b.hi());
  const double c3 = corner_mul(a.hi(), b.lo());
  const double c4 = corner_mul(a.hi(), b.hi());
  const double lo = std::min({c1, c2, c3, c4});
  const double hi = std::max({c1, c2, c3, c4});
  return make_unchecked(rnd::next_down(lo), rnd::next_up(hi));
}

/// Quotient, rounded outward; [0, 0] / b is exactly [0, 0]. Throws
/// `std::domain_error` if `b` contains zero (whatever `a` is).
[[gnu::always_inline]] inline Interval operator/(const Interval& a, const Interval& b) {
  if (b.contains(0.0)) {
    throw_zero_divisor(b);
  }
  if (a.is_zero()) {
    return Interval{};
  }
  const double c1 = a.lo() / b.lo();
  const double c2 = a.lo() / b.hi();
  const double c3 = a.hi() / b.lo();
  const double c4 = a.hi() / b.hi();
  const double lo = std::min({c1, c2, c3, c4});
  const double hi = std::max({c1, c2, c3, c4});
  return make_unchecked(rnd::next_down(lo), rnd::next_up(hi));
}

[[gnu::always_inline]] inline Interval& Interval::operator+=(const Interval& rhs) {
  *this = *this + rhs;
  return *this;
}
[[gnu::always_inline]] inline Interval& Interval::operator-=(const Interval& rhs) {
  *this = *this - rhs;
  return *this;
}
[[gnu::always_inline]] inline Interval& Interval::operator*=(const Interval& rhs) {
  *this = *this * rhs;
  return *this;
}
[[gnu::always_inline]] inline Interval& Interval::operator/=(const Interval& rhs) {
  *this = *this / rhs;
  return *this;
}

/// Smallest interval containing both arguments.
Interval hull(const Interval& a, const Interval& b);
/// Intersection, or nullopt when disjoint.
std::optional<Interval> intersect(const Interval& a, const Interval& b);

/// x^2 (tighter than x*x: the result is never negative).
Interval sqr(const Interval& x);
/// sqrt over x ∩ [0, inf); throws `std::domain_error` when hi < 0.
Interval sqrt(const Interval& x);
/// |x|.
Interval abs(const Interval& x);
/// Integer power (n >= 0).
Interval pow(const Interval& x, int n);
Interval exp(const Interval& x);
/// Natural log over x ∩ (0, inf); throws `std::domain_error` when hi <= 0.
Interval log(const Interval& x);
/// Sound sine enclosure. Arguments with |x| > 1e12 fall back to [-1, 1].
Interval sin(const Interval& x);
/// Sound cosine enclosure (same domain note as `sin`).
Interval cos(const Interval& x);
/// {sin(x), cos(x)}, bit for bit the two separate calls: one call site for
/// plant fields that need both of one angle.
std::pair<Interval, Interval> sincos(const Interval& x);
/// Monotone arctangent enclosure.
Interval atan(const Interval& x);
/// Sound atan2 over an (y, x) box. Returns [-pi, pi] when the box contains
/// the origin or crosses the negative-x branch cut.
Interval atan2(const Interval& y, const Interval& x);
Interval min(const Interval& a, const Interval& b);
Interval max(const Interval& a, const Interval& b);

/// Tight enclosure of pi.
Interval pi_interval();

std::ostream& operator<<(std::ostream& os, const Interval& x);

}  // namespace nncs
