#include "ode/taylor_series.hpp"

#include <stdexcept>
#include <tuple>
#include <utility>

namespace nncs {

namespace {

void check_same_order(const TaylorSeries& a, const TaylorSeries& b) {
  if (a.order() != b.order()) {
    throw std::invalid_argument("TaylorSeries: order mismatch");
  }
}

// Exact zeros are common here (a constant's higher coefficients, a zero
// command, a field with zero rows) and cost nothing: x ± [0, 0] = x, and a
// product term with a [0, 0] factor is skipped. Rounding them outward
// instead would give [-4.9e-324, 4.9e-324], and every later product with
// such a bound takes the CPU's slow subnormal path. A sum of no terms stays
// exactly [0, 0].

Interval add(const Interval& a, const Interval& b) {
  if (a.is_zero()) {
    return b;
  }
  if (b.is_zero()) {
    return a;
  }
  return a + b;
}

Interval sub(const Interval& a, const Interval& b) {
  if (b.is_zero()) {
    return a;
  }
  if (a.is_zero()) {
    return -b;
  }
  return a - b;
}

/// acc += x * y, skipping the term when either factor is exactly [0, 0].
void add_product(Interval& acc, const Interval& x, const Interval& y) {
  if (!x.is_zero() && !y.is_zero()) {
    acc = add(acc, x * y);
  }
}

}  // namespace

TaylorSeries::TaylorSeries(std::size_t order) : size_(order + 1) {
  if (order > kMaxOrder) {
    throw std::invalid_argument("TaylorSeries: order above kMaxOrder");
  }
}

TaylorSeries::TaylorSeries(std::size_t order, const Interval& value) : TaylorSeries(order) {
  coeffs_[0] = value;
}

void TaylorSeries::push_back(const Interval& c) {
  if (size_ == coeffs_.size()) {
    throw std::invalid_argument("TaylorSeries: order above kMaxOrder");
  }
  coeffs_[size_++] = c;
}

Interval TaylorSeries::eval(const Interval& t) const {
  if (size_ == 0) {
    return Interval{};
  }
  Interval acc = coeffs_[size_ - 1];
  for (std::size_t k = size_ - 1; k-- > 0;) {
    acc = add(coeffs_[k], t * acc);
  }
  return acc;
}

TaylorSeries& TaylorSeries::operator+=(const TaylorSeries& rhs) {
  check_same_order(*this, rhs);
  for (std::size_t k = 0; k < size_; ++k) {
    coeffs_[k] = add(coeffs_[k], rhs.coeffs_[k]);
  }
  return *this;
}

TaylorSeries& TaylorSeries::operator-=(const TaylorSeries& rhs) {
  check_same_order(*this, rhs);
  for (std::size_t k = 0; k < size_; ++k) {
    coeffs_[k] = sub(coeffs_[k], rhs.coeffs_[k]);
  }
  return *this;
}

TaylorSeries operator+(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  r += b;
  return r;
}

TaylorSeries operator-(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  r -= b;
  return r;
}

TaylorSeries operator-(const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t k = 0; k <= a.order(); ++k) {
    r[k] = -a[k];
  }
  return r;
}

TaylorSeries operator*(const TaylorSeries& a, const TaylorSeries& b) {
  check_same_order(a, b);
  TaylorSeries r(a.order());
  for (std::size_t k = 0; k <= a.order(); ++k) {
    Interval acc{};
    for (std::size_t i = 0; i <= k; ++i) {
      add_product(acc, a[i], b[k - i]);
    }
    r[k] = acc;
  }
  return r;
}

TaylorSeries operator*(const Interval& k, const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t i = 0; i <= a.order(); ++i) {
    r[i] = k * a[i];
  }
  return r;
}

TaylorSeries operator*(const TaylorSeries& a, const Interval& k) { return k * a; }

TaylorSeries operator+(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = add(r[0], k);
  return r;
}

TaylorSeries operator+(const Interval& k, const TaylorSeries& a) { return a + k; }

TaylorSeries operator-(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = sub(r[0], k);
  return r;
}

TaylorSeries operator-(const Interval& k, const TaylorSeries& a) { return -a + k; }

std::pair<TaylorSeries, TaylorSeries> sincos(const TaylorSeries& u) {
  const std::size_t order = u.order();
  TaylorSeries s(order);
  TaylorSeries c(order);
  std::tie(s[0], c[0]) = sincos(u[0]);
  for (std::size_t k = 1; k <= order; ++k) {
    Interval s_acc{};
    Interval c_acc{};
    for (std::size_t j = 1; j <= k; ++j) {
      const Interval ju = Interval{static_cast<double>(j)} * u[j];
      add_product(s_acc, ju, c[k - j]);
      add_product(c_acc, ju, s[k - j]);
    }
    // 1/k is not exactly representable for all k; divide in interval
    // arithmetic to stay sound ([0, 0] / k stays exact).
    const Interval k_iv{static_cast<double>(k)};
    s[k] = s_acc / k_iv;
    c[k] = -(c_acc / k_iv);
  }
  return {std::move(s), std::move(c)};
}

TaylorSeries sin(const TaylorSeries& u) { return sincos(u).first; }

TaylorSeries cos(const TaylorSeries& u) { return sincos(u).second; }

TaylorSeries sqr(const TaylorSeries& u) { return u * u; }

}  // namespace nncs
