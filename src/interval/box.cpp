#include "interval/box.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace nncs {

Box::Box(std::size_t dim, const Interval& iv) : dims_(dim, iv) {}

Box::Box(std::vector<Interval> dims) : dims_(std::move(dims)) {}

Box::Box(std::initializer_list<Interval> dims) : dims_(dims) {}

Box Box::from_point(const Vec& point) {
  std::vector<Interval> dims;
  dims.reserve(point.size());
  for (const double v : point) {
    dims.emplace_back(v);
  }
  return Box{std::move(dims)};
}

Box Box::from_corners(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("Box::from_corners: dimension mismatch");
  }
  std::vector<Interval> dims;
  dims.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    dims.emplace_back(std::min(a[i], b[i]), std::max(a[i], b[i]));
  }
  return Box{std::move(dims)};
}

Vec Box::midpoint() const {
  Vec mid(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    mid[i] = dims_[i].mid();
  }
  return mid;
}

Vec Box::widths() const {
  Vec w(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    w[i] = dims_[i].width();
  }
  return w;
}

double Box::max_width() const {
  double w = 0.0;
  for (const auto& d : dims_) {
    w = std::max(w, d.width());
  }
  return w;
}

std::size_t Box::widest_dim() const {
  std::size_t best = 0;
  double w = -1.0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].width() > w) {
      w = dims_[i].width();
      best = i;
    }
  }
  return best;
}

double Box::volume() const {
  double v = 1.0;
  for (const auto& d : dims_) {
    v *= d.width();
  }
  return v;
}

bool Box::contains(const Vec& point) const {
  if (point.size() != dims_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].contains(point[i])) {
      return false;
    }
  }
  return true;
}

bool Box::contains(const Box& other) const {
  if (other.dim() != dims_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].contains(other[i])) {
      return false;
    }
  }
  return true;
}

bool Box::contains_in_interior(const Box& other) const {
  if (other.dim() != dims_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].contains_in_interior(other[i])) {
      return false;
    }
  }
  return true;
}

bool Box::intersects(const Box& other) const {
  if (other.dim() != dims_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].intersects(other[i])) {
      return false;
    }
  }
  return true;
}

Box Box::inflated(double delta_abs, double delta_rel) const {
  std::vector<Interval> dims;
  dims.reserve(dims_.size());
  for (const auto& d : dims_) {
    dims.push_back(d.inflated(delta_abs + delta_rel * d.mag()));
  }
  return Box{std::move(dims)};
}

std::pair<Box, Box> Box::bisect(std::size_t d) const {
  if (d >= dims_.size()) {
    throw std::out_of_range("Box::bisect: dimension out of range");
  }
  const double m = dims_[d].mid();
  Box lower = *this;
  Box upper = *this;
  lower.dims_[d] = Interval{dims_[d].lo(), m};
  upper.dims_[d] = Interval{m, dims_[d].hi()};
  return {std::move(lower), std::move(upper)};
}

bool Box::bisectable(std::size_t d) const {
  if (d >= dims_.size()) {
    throw std::out_of_range("Box::bisectable: dimension out of range");
  }
  const double m = dims_[d].mid();
  return dims_[d].lo() < m && m < dims_[d].hi();
}

std::vector<Box> Box::split(const std::vector<std::size_t>& dims_to_split) const {
  std::vector<Box> result{*this};
  for (const std::size_t d : dims_to_split) {
    std::vector<Box> next;
    next.reserve(result.size() * 2);
    for (const auto& box : result) {
      auto [lower, upper] = box.bisect(d);
      next.push_back(std::move(lower));
      next.push_back(std::move(upper));
    }
    result = std::move(next);
  }
  return result;
}

double Box::center_distance(const Box& other) const {
  return euclidean_distance(midpoint(), other.midpoint());
}

std::string Box::str() const {
  std::ostringstream oss;
  oss << *this;
  return oss.str();
}

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("euclidean_distance: dimension mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

Box hull(const Box& a, const Box& b) {
  if (a.dim() != b.dim()) {
    throw std::invalid_argument("Box hull: dimension mismatch");
  }
  std::vector<Interval> dims;
  dims.reserve(a.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    dims.push_back(hull(a[i], b[i]));
  }
  return Box{std::move(dims)};
}

std::optional<Box> intersect(const Box& a, const Box& b) {
  if (a.dim() != b.dim()) {
    return std::nullopt;
  }
  std::vector<Interval> dims;
  dims.reserve(a.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    auto iv = intersect(a[i], b[i]);
    if (!iv) {
      return std::nullopt;
    }
    dims.push_back(*iv);
  }
  return Box{std::move(dims)};
}

std::ostream& operator<<(std::ostream& os, const Box& box) {
  os << '{';
  for (std::size_t i = 0; i < box.dim(); ++i) {
    if (i != 0) {
      os << " x ";
    }
    os << box[i];
  }
  os << '}';
  return os;
}

}  // namespace nncs
