#include "interval/interval.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nncs {

namespace {

using rnd::kLibmUlps;
using rnd::step_down;
using rnd::step_up;

/// True if some point `offset + k*period` (k integer) may lie within
/// [lo - margin, hi + margin]. Used to test whether sin/cos attain an
/// extremum inside the argument interval; `margin` absorbs the rounding of
/// the point computation, so the test errs toward "yes" (sound: can only
/// widen the enclosure).
bool contains_lattice_point(double lo, double hi, double offset, double period) {
  const double mag = std::max({1.0, std::fabs(lo), std::fabs(hi)});
  const double margin = 1e-9 * mag;
  const double k = std::ceil((lo - margin - offset) / period);
  return offset + k * period <= hi + margin;
}

}  // namespace

Interval::Interval(double lo, double hi) : lo_(lo), hi_(hi) {
  if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
    std::ostringstream oss;
    oss << "Interval: invalid bounds [" << lo << ", " << hi << "]";
    throw std::invalid_argument(oss.str());
  }
}

Interval Interval::entire() { return make_unchecked(-rnd::kInf, rnd::kInf); }

Interval Interval::centered(double v, double radius) {
  if (radius < 0.0 || std::isnan(radius)) {
    throw std::invalid_argument("Interval::centered: negative radius");
  }
  return make_unchecked(rnd::sub_down(v, radius), rnd::add_up(v, radius));
}

double Interval::mid() const {
  if (lo_ == -rnd::kInf && hi_ == rnd::kInf) {
    return 0.0;
  }
  if (lo_ == -rnd::kInf) {
    return -std::numeric_limits<double>::max();
  }
  if (hi_ == rnd::kInf) {
    return std::numeric_limits<double>::max();
  }
  const double m = 0.5 * (lo_ + hi_);
  if (std::isfinite(m)) {
    return std::clamp(m, lo_, hi_);
  }
  return 0.5 * lo_ + 0.5 * hi_;
}

double Interval::rad() const { return rnd::mul_up(0.5, width()); }

double Interval::mag() const { return std::max(std::fabs(lo_), std::fabs(hi_)); }

Interval Interval::inflated(double delta) const {
  if (delta < 0.0 || std::isnan(delta)) {
    throw std::invalid_argument("Interval::inflated: negative delta");
  }
  return make_unchecked(rnd::sub_down(lo_, delta), rnd::add_up(hi_, delta));
}

std::string Interval::str() const {
  std::ostringstream oss;
  oss << *this;
  return oss.str();
}

void throw_zero_divisor(const Interval& b) {
  throw std::domain_error("Interval division by interval containing zero: " + b.str());
}

Interval hull(const Interval& a, const Interval& b) {
  return make_unchecked(std::min(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

std::optional<Interval> intersect(const Interval& a, const Interval& b) {
  const double lo = std::max(a.lo(), b.lo());
  const double hi = std::min(a.hi(), b.hi());
  if (lo > hi) {
    return std::nullopt;
  }
  return make_unchecked(lo, hi);
}

Interval sqr(const Interval& x) {
  const double alo = std::fabs(x.lo());
  const double ahi = std::fabs(x.hi());
  const double big = std::max(alo, ahi);
  const double small = x.contains(0.0) ? 0.0 : std::min(alo, ahi);
  const double lo = small == 0.0 ? 0.0 : std::max(0.0, rnd::mul_down(small, small));
  return make_unchecked(lo, rnd::mul_up(big, big));
}

Interval sqrt(const Interval& x) {
  if (x.hi() < 0.0) {
    throw std::domain_error("Interval sqrt of negative interval " + x.str());
  }
  const double lo_arg = std::max(0.0, x.lo());
  const double lo = std::max(0.0, step_down(std::sqrt(lo_arg), 1));
  const double hi = step_up(std::sqrt(x.hi()), 1);
  return make_unchecked(lo, hi);
}

Interval abs(const Interval& x) {
  if (x.lo() >= 0.0) {
    return x;
  }
  if (x.hi() <= 0.0) {
    return -x;
  }
  return make_unchecked(0.0, x.mag());
}

Interval pow(const Interval& x, int n) {
  if (n < 0) {
    throw std::domain_error("Interval pow: negative exponent");
  }
  Interval result{1.0};
  Interval base = x;
  int e = n;
  // Square-and-multiply; sqr() keeps even powers of sign-crossing intervals
  // from going spuriously negative.
  while (e > 0) {
    if ((e & 1) != 0) {
      result = result * base;
    }
    e >>= 1;
    if (e > 0) {
      base = sqr(base);
    }
  }
  return result;
}

Interval exp(const Interval& x) {
  const double lo = std::max(0.0, step_down(std::exp(x.lo()), kLibmUlps));
  const double hi = step_up(std::exp(x.hi()), kLibmUlps);
  return make_unchecked(lo, hi);
}

Interval log(const Interval& x) {
  if (x.hi() <= 0.0) {
    throw std::domain_error("Interval log of non-positive interval " + x.str());
  }
  const double lo =
      x.lo() <= 0.0 ? -rnd::kInf : step_down(std::log(x.lo()), kLibmUlps);
  const double hi = step_up(std::log(x.hi()), kLibmUlps);
  return make_unchecked(lo, hi);
}

namespace {

constexpr double kTrigMaxArg = 1e12;
const double kPi = std::numbers::pi;
const double kTwoPi = 2.0 * std::numbers::pi;

Interval trig_enclosure(const Interval& x, double (*f)(double), double max_offset,
                        double min_offset) {
  if (!x.is_finite() || x.mag() > kTrigMaxArg || x.width() >= 7.0) {
    return make_unchecked(-1.0, 1.0);
  }
  const double f_lo = f(x.lo());
  const double f_hi = f(x.hi());
  double lo = std::min(step_down(f_lo, kLibmUlps), step_down(f_hi, kLibmUlps));
  double hi = std::max(step_up(f_lo, kLibmUlps), step_up(f_hi, kLibmUlps));
  if (contains_lattice_point(x.lo(), x.hi(), max_offset, kTwoPi)) {
    hi = 1.0;
  }
  if (contains_lattice_point(x.lo(), x.hi(), min_offset, kTwoPi)) {
    lo = -1.0;
  }
  lo = std::max(lo, -1.0);
  hi = std::min(hi, 1.0);
  return make_unchecked(lo, hi);
}

}  // namespace

Interval sin(const Interval& x) {
  return trig_enclosure(
      x, +[](double v) { return std::sin(v); }, kPi / 2.0, -kPi / 2.0);
}

Interval cos(const Interval& x) {
  return trig_enclosure(
      x, +[](double v) { return std::cos(v); }, 0.0, -kPi);
}

std::pair<Interval, Interval> sincos(const Interval& x) { return {sin(x), cos(x)}; }

Interval atan(const Interval& x) {
  // atan ranges over (-pi/2, pi/2), so clamp to a tight outward-rounded
  // pi/2 enclosure: pi_interval().hi() >= pi and halving is exact in
  // IEEE-754, so half_pi_hi >= pi/2 with less than one ulp of slack. The
  // clamp trims the kLibmUlps widening where atan saturates (|x| huge).
  const double half_pi_hi = pi_interval().hi() * 0.5;
  const double lo = std::max(step_down(std::atan(x.lo()), kLibmUlps), -half_pi_hi);
  const double hi = std::min(step_up(std::atan(x.hi()), kLibmUlps), half_pi_hi);
  return make_unchecked(lo, hi);
}

Interval atan2(const Interval& y, const Interval& x) {
  const Interval pi = pi_interval();
  const Interval full = make_unchecked(-pi.hi(), pi.hi());
  const bool contains_origin = x.contains(0.0) && y.contains(0.0);
  const bool crosses_branch_cut = x.lo() < 0.0 && y.contains(0.0);
  if (contains_origin || crosses_branch_cut) {
    return full;
  }
  // The box avoids the origin and the branch cut, so atan2 is continuous on
  // it and its angular extremes are attained at corners.
  double lo = rnd::kInf;
  double hi = -rnd::kInf;
  for (const double yy : {y.lo(), y.hi()}) {
    for (const double xx : {x.lo(), x.hi()}) {
      const double a = std::atan2(yy, xx);
      lo = std::min(lo, step_down(a, kLibmUlps));
      hi = std::max(hi, step_up(a, kLibmUlps));
    }
  }
  lo = std::max(lo, full.lo());
  hi = std::min(hi, full.hi());
  return make_unchecked(lo, hi);
}

Interval min(const Interval& a, const Interval& b) {
  return make_unchecked(std::min(a.lo(), b.lo()), std::min(a.hi(), b.hi()));
}

Interval max(const Interval& a, const Interval& b) {
  return make_unchecked(std::max(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

Interval pi_interval() {
  // The double closest to pi is below the true value.
  return make_unchecked(std::numbers::pi, rnd::next_up(std::numbers::pi));
}

std::ostream& operator<<(std::ostream& os, const Interval& x) {
  os << '[' << x.lo() << ", " << x.hi() << ']';
  return os;
}

}  // namespace nncs
