#pragma once

// Reference Taylor-series arithmetic for the tests: truncated interval
// series, each operation computing every coefficient of its result.
// `TaylorIntegrator.StepMatchesFullOrderReferenceBitForBit` checks the tape
// sweep against it, evaluated at full order on every pass, and the
// recording tests evaluate field functors over it directly.

#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "interval/interval.hpp"
#include "ode/field_tape.hpp"

namespace nncs::reference {

/// x(t) = c[0] + c[1] t + ... + c[order] t^order, interval coefficients.
class TaylorSeries {
 public:
  TaylorSeries() = default;
  explicit TaylorSeries(std::size_t order) : c_(order + 1) {}
  TaylorSeries(std::size_t order, const Interval& value) : c_(order + 1) { c_[0] = value; }

  [[nodiscard]] std::size_t order() const { return c_.size() - 1; }
  Interval& operator[](std::size_t k) { return c_[k]; }
  const Interval& operator[](std::size_t k) const { return c_[k]; }

 private:
  std::vector<Interval> c_;
};

// x ± [0, 0] = x, and a product term with a [0, 0] factor is skipped.
inline Interval add(const Interval& a, const Interval& b) {
  if (a.is_zero()) {
    return b;
  }
  if (b.is_zero()) {
    return a;
  }
  return a + b;
}

inline Interval sub(const Interval& a, const Interval& b) {
  if (b.is_zero()) {
    return a;
  }
  if (a.is_zero()) {
    return -b;
  }
  return a - b;
}

inline void add_product(Interval& acc, const Interval& x, const Interval& y) {
  if (!x.is_zero() && !y.is_zero()) {
    acc = add(acc, x * y);
  }
}

inline TaylorSeries operator+(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  for (std::size_t k = 0; k <= a.order(); ++k) {
    r[k] = add(a[k], b[k]);
  }
  return r;
}

inline TaylorSeries operator-(const TaylorSeries& a, const TaylorSeries& b) {
  TaylorSeries r = a;
  for (std::size_t k = 0; k <= a.order(); ++k) {
    r[k] = sub(a[k], b[k]);
  }
  return r;
}

inline TaylorSeries operator-(const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t k = 0; k <= a.order(); ++k) {
    r[k] = -a[k];
  }
  return r;
}

/// Truncated Cauchy product.
inline TaylorSeries operator*(const TaylorSeries& a, const TaylorSeries& b) {
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

inline TaylorSeries operator*(const Interval& k, const TaylorSeries& a) {
  TaylorSeries r(a.order());
  for (std::size_t i = 0; i <= a.order(); ++i) {
    r[i] = k * a[i];
  }
  return r;
}

inline TaylorSeries operator*(const TaylorSeries& a, const Interval& k) { return k * a; }

inline TaylorSeries operator+(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = add(r[0], k);
  return r;
}

inline TaylorSeries operator+(const Interval& k, const TaylorSeries& a) { return a + k; }

inline TaylorSeries operator-(const TaylorSeries& a, const Interval& k) {
  TaylorSeries r = a;
  r[0] = sub(r[0], k);
  return r;
}

inline TaylorSeries operator-(const Interval& k, const TaylorSeries& a) { return -a + k; }

/// Joint sine/cosine via the coupled recurrence s' = u' cos u, c' = −u' sin u.
inline std::pair<TaylorSeries, TaylorSeries> sincos(const TaylorSeries& u) {
  TaylorSeries s(u.order());
  TaylorSeries c(u.order());
  std::tie(s[0], c[0]) = nncs::sincos(u[0]);
  for (std::size_t k = 1; k <= u.order(); ++k) {
    Interval s_acc{};
    Interval c_acc{};
    for (std::size_t j = 1; j <= k; ++j) {
      const Interval ju = Interval{static_cast<double>(j)} * u[j];
      add_product(s_acc, ju, c[k - j]);
      add_product(c_acc, ju, s[k - j]);
    }
    const Interval k_iv{static_cast<double>(k)};
    s[k] = s_acc / k_iv;
    c[k] = -(c_acc / k_iv);
  }
  return {std::move(s), std::move(c)};
}

inline TaylorSeries sin(const TaylorSeries& u) { return sincos(u).first; }
inline TaylorSeries cos(const TaylorSeries& u) { return sincos(u).second; }
inline TaylorSeries sqr(const TaylorSeries& u) { return u * u; }

/// Horner evaluation over an interval t, skipping [0, 0] sides.
inline Interval eval(const TaylorSeries& p, const Interval& t) {
  Interval acc = p[p.order()];
  for (std::size_t k = p.order(); k-- > 0;) {
    acc = add(p[k], t * acc);
  }
  return acc;
}

/// The field behind `tape` evaluated over series, node by node with the
/// series operations above: what evaluating the field functor itself over
/// series gives, for fields whose functor a test cannot name.
inline std::vector<TaylorSeries> eval_tape(const FieldTape& tape, std::span<const TaylorSeries> s,
                                           std::span<const TaylorSeries> u) {
  using Op = FieldTape::Op;
  std::vector<TaylorSeries> v;
  for (const FieldTape::Node& node : tape.nodes()) {
    const std::size_t n = v.size();
    switch (node.op) {
      case Op::kInput:
        v.push_back(n < s.size() ? s[n] : u[n - s.size()]);
        break;
      case Op::kAdd:
        v.push_back(v[node.a] + v[node.b]);
        break;
      case Op::kSub:
        v.push_back(v[node.a] - v[node.b]);
        break;
      case Op::kNeg:
        v.push_back(-v[node.a]);
        break;
      case Op::kMul:
        v.push_back(v[node.a] * v[node.b]);
        break;
      case Op::kScale:
        v.push_back(node.k * v[node.a]);
        break;
      case Op::kAddConst:
        v.push_back(v[node.a] + node.k);
        break;
      case Op::kSubConst:
        v.push_back(v[node.a] - node.k);
        break;
      case Op::kSin:
        v.push_back(sin(v[node.a]));
        break;
      case Op::kCos:
        v.push_back(cos(v[node.a]));
        break;
    }
  }
  std::vector<TaylorSeries> out;
  for (const std::uint32_t node : tape.outputs()) {
    out.push_back(v[node]);
  }
  return out;
}

/// Sweeps `tape` for order + 1 passes over the given input series (the
/// states, then the commands) and returns every output's coefficients
/// 0..order.
inline std::vector<TaylorSeries> sweep(const FieldTape& tape, std::span<const TaylorSeries> inputs,
                                       std::size_t order) {
  const std::size_t stride = order + 1;
  std::vector<Interval> coeffs(tape.nodes().size() * stride);
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    for (std::size_t k = 0; k <= order; ++k) {
      coeffs[n * stride + k] = inputs[n][k];
    }
  }
  for (std::size_t k = 0; k <= order; ++k) {
    tape.pass(coeffs, stride, k);
  }
  std::vector<TaylorSeries> out;
  for (const std::uint32_t node : tape.outputs()) {
    TaylorSeries r(order);
    for (std::size_t k = 0; k <= order; ++k) {
      r[k] = coeffs[node * stride + k];
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nncs::reference
