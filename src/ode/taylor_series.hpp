#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "interval/interval.hpp"

namespace nncs {

/// Truncated Taylor series with interval coefficients:
///   x(t) = c[0] + c[1] t + ... + c[order] t^order.
///
/// This is the "Taylor-mode automatic differentiation" scalar used by the
/// validated integrator: evaluating the plant dynamics f over
/// `TaylorSeries` states yields the Taylor coefficients of f(s(t)), from
/// which the solution coefficients follow by the Picard recurrence
/// s_{k+1} = (f(s))_k / (k+1)  (Moore's interval Taylor-series method).
///
/// All arithmetic is truncated at `order()` and every coefficient operation
/// uses outward-rounded interval arithmetic, so a `TaylorSeries` soundly
/// encloses the true series prefix whenever its inputs do. Coefficient k of
/// every result depends only on coefficients 0..k of the operands and is
/// computed by the same operation sequence at any order, so the integrator
/// can grow its series one coefficient per pass (`push_back`) and get the
/// bits a full-order evaluation would give.
///
/// The coefficients live inline (capacity `kMaxOrder + 1`), so no series
/// operation allocates; orders above `kMaxOrder` throw
/// `std::invalid_argument`.
class TaylorSeries {
 public:
  static constexpr std::size_t kMaxOrder = 15;

  TaylorSeries() = default;

  /// Series with `order + 1` zero coefficients.
  explicit TaylorSeries(std::size_t order);

  /// Constant series: c[0] = value, higher coefficients zero.
  TaylorSeries(std::size_t order, const Interval& value);

  [[nodiscard]] std::size_t order() const { return size_ == 0 ? 0 : size_ - 1; }

  Interval& operator[](std::size_t k) { return coeffs_[k]; }
  const Interval& operator[](std::size_t k) const { return coeffs_[k]; }

  /// Raise the order by one, appending `c` as the new top coefficient.
  void push_back(const Interval& c);

  /// Evaluate the polynomial part over a time interval via Horner's scheme
  /// (the caller adds any remainder term separately).
  [[nodiscard]] Interval eval(const Interval& t) const;

  TaylorSeries& operator+=(const TaylorSeries& rhs);
  TaylorSeries& operator-=(const TaylorSeries& rhs);

 private:
  std::array<Interval, kMaxOrder + 1> coeffs_{};
  std::size_t size_ = 0;
};

TaylorSeries operator+(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator-(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator-(const TaylorSeries& a);
/// Truncated Cauchy product.
TaylorSeries operator*(const TaylorSeries& a, const TaylorSeries& b);
TaylorSeries operator*(const Interval& k, const TaylorSeries& a);
TaylorSeries operator*(const TaylorSeries& a, const Interval& k);
TaylorSeries operator+(const TaylorSeries& a, const Interval& k);
TaylorSeries operator+(const Interval& k, const TaylorSeries& a);
TaylorSeries operator-(const TaylorSeries& a, const Interval& k);
TaylorSeries operator-(const Interval& k, const TaylorSeries& a);

/// Joint sine/cosine of a series via the classical coupled recurrence
/// (s' = u' cos u, c' = -u' sin u). Fields that need both call this once:
/// `sin` and `cos` each run the whole recurrence.
std::pair<TaylorSeries, TaylorSeries> sincos(const TaylorSeries& u);
TaylorSeries sin(const TaylorSeries& u);
TaylorSeries cos(const TaylorSeries& u);
/// x^2 via the Cauchy product.
TaylorSeries sqr(const TaylorSeries& u);

}  // namespace nncs
