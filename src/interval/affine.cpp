#include "interval/affine.hpp"

#include <cmath>
#include <stdexcept>

namespace nncs {

namespace {

// The term-count scaling of the slack happens at the call sites.
using rnd::kCoeffSlack;

/// Merge two sorted term lists with per-term combiner ka*a + kb*b,
/// accumulating |result| into `abs_sum` for the rounding slack.
std::vector<std::pair<std::uint32_t, double>> merge_terms(
    const std::vector<std::pair<std::uint32_t, double>>& a, double ka,
    const std::vector<std::pair<std::uint32_t, double>>& b, double kb, double& abs_sum) {
  std::vector<std::pair<std::uint32_t, double>> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    double value = 0.0;
    std::uint32_t id = 0;
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      id = a[i].first;
      value = ka * a[i].second;
      ++i;
    } else if (i >= a.size() || b[j].first < a[i].first) {
      id = b[j].first;
      value = kb * b[j].second;
      ++j;
    } else {
      id = a[i].first;
      value = ka * a[i].second + kb * b[j].second;
      ++i;
      ++j;
    }
    abs_sum += std::fabs(value);
    if (value != 0.0) {
      out.emplace_back(id, value);
    }
  }
  return out;
}

}  // namespace

Affine Affine::variable(double lo, double hi, NoiseSource& source) {
  if (!(lo <= hi) || !std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("Affine::variable: invalid bounds");
  }
  Affine x;
  x.center_ = 0.5 * (lo + hi);
  const double rad = 0.5 * (hi - lo);
  if (rad > 0.0) {
    x.terms_.emplace_back(source.fresh(), rad);
  }
  // Cover the rounding of center/radius: the true interval must stay inside.
  x.err_ = kCoeffSlack * (std::fabs(x.center_) + rad);
  return x;
}

Affine Affine::from_parts(double center, std::vector<std::pair<std::uint32_t, double>> terms,
                          double err) {
  Affine x;
  x.center_ = center;
  x.terms_ = std::move(terms);
  x.err_ = err;
  return x;
}

double Affine::radius() const {
  double r = err_;
  for (const auto& [id, coeff] : terms_) {
    r += std::fabs(coeff);
  }
  // One more outward nudge to absorb the summation rounding.
  return r * (1.0 + kCoeffSlack * static_cast<double>(terms_.size() + 1));
}

Interval Affine::range() const {
  const double r = radius();
  return Interval{rnd::sub_down(center_, r), rnd::add_up(center_, r)};
}

Interval Affine::evaluate(const std::vector<double>& noise) const {
  double v = center_;
  for (const auto& [id, coeff] : terms_) {
    const double eps = id < noise.size() ? noise[id] : 0.0;
    v += coeff * eps;
  }
  return Interval{v - err_, v + err_}.inflated(1e-12 + 1e-12 * std::fabs(v));
}

Affine Affine::operator-() const {
  Affine out = *this;
  out.center_ = -out.center_;
  for (auto& [id, coeff] : out.terms_) {
    coeff = -coeff;
  }
  return out;
}

Affine& Affine::operator+=(const Affine& rhs) {
  *this = *this + rhs;
  return *this;
}

Affine& Affine::operator-=(const Affine& rhs) {
  *this = *this - rhs;
  return *this;
}

Affine operator+(const Affine& a, const Affine& b) {
  Affine out;
  out.center_ = a.center_ + b.center_;
  double abs_sum = std::fabs(out.center_);
  out.terms_ = merge_terms(a.terms_, 1.0, b.terms_, 1.0, abs_sum);
  out.err_ = a.err_ + b.err_ + kCoeffSlack * abs_sum;
  return out;
}

Affine operator-(const Affine& a, const Affine& b) {
  Affine out;
  out.center_ = a.center_ - b.center_;
  double abs_sum = std::fabs(out.center_);
  out.terms_ = merge_terms(a.terms_, 1.0, b.terms_, -1.0, abs_sum);
  out.err_ = a.err_ + b.err_ + kCoeffSlack * abs_sum;
  return out;
}

Affine operator*(const Affine& a, const Affine& b) {
  // (ca + A)(cb + B) = ca·cb + ca·B + cb·A + A·B with A·B bounded by
  // rad(A)·rad(B) into the error symbol.
  Affine out;
  out.center_ = a.center_ * b.center_;
  double abs_sum = std::fabs(out.center_);
  out.terms_ = merge_terms(a.terms_, b.center_, b.terms_, a.center_, abs_sum);
  // Write A = ca + Da, B = cb + Db (deviations Da, Db with radii ra, rb,
  // error parts ea, eb). Kept linear terms cover ca·(B's symbols) +
  // cb·(A's symbols); still unaccounted: ca·eb and cb·ea (the other form's
  // anonymous error scaled by the center) and the quadratic Da·Db, bounded
  // by ra·rb.
  const double rad_a = a.radius();
  const double rad_b = b.radius();
  out.err_ = std::fabs(a.center_) * b.err_ + std::fabs(b.center_) * a.err_ +
             rad_a * rad_b + kCoeffSlack * (abs_sum + rad_a * rad_b);
  return out;
}

Affine operator*(double k, const Affine& a) {
  Affine out;
  out.center_ = k * a.center_;
  double abs_sum = std::fabs(out.center_);
  out.terms_.reserve(a.terms_.size());
  for (const auto& [id, coeff] : a.terms_) {
    const double v = k * coeff;
    abs_sum += std::fabs(v);
    if (v != 0.0) {
      out.terms_.emplace_back(id, v);
    }
  }
  out.err_ = std::fabs(k) * a.err_ + kCoeffSlack * abs_sum;
  return out;
}

void Affine::add_error(double magnitude) {
  if (!(magnitude >= 0.0)) {
    throw std::invalid_argument("Affine::add_error: magnitude must be >= 0");
  }
  err_ = rnd::add_up(err_, magnitude);
}

Affine Affine::relu(NoiseSource& source) const {
  const Interval r = range();
  if (r.lo() >= 0.0) {
    return *this;
  }
  if (r.hi() <= 0.0) {
    return Affine{0.0};
  }
  const double l = r.lo();
  const double u = r.hi();
  const double lambda = u / (u - l);
  const double mu = -lambda * l;  // > 0
  Affine out = lambda * *this;
  out.center_ += mu / 2.0;
  out.terms_.emplace_back(source.fresh(), mu / 2.0);
  out.err_ += kCoeffSlack * (std::fabs(out.center_) + mu);
  return out;
}

}  // namespace nncs
