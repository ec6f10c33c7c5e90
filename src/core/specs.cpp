#include "core/specs.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace nncs {

RadialRegion::RadialRegion(std::size_t ix, std::size_t iy, double threshold, Mode mode)
    : ix_(ix), iy_(iy), threshold_(threshold), mode_(mode) {
  if (threshold <= 0.0 || !std::isfinite(threshold)) {
    throw std::invalid_argument("RadialRegion: threshold must be positive and finite");
  }
}

bool RadialRegion::contains_point(const Vec& state, std::size_t /*command*/) const {
  const double r = std::hypot(state[ix_], state[iy_]);
  return mode_ == Mode::kInner ? r < threshold_ : r > threshold_;
}

bool RadialRegion::certainly_contains(const Box& state, std::size_t /*command*/) const {
  const Interval r = sqrt(sqr(state[ix_]) + sqr(state[iy_]));
  // Sound "for all": compare the worst-case bound against the threshold.
  return mode_ == Mode::kInner ? r.hi() < threshold_ : r.lo() > threshold_;
}

bool RadialRegion::possibly_intersects(const Box& state, std::size_t /*command*/) const {
  const Interval r = sqrt(sqr(state[ix_]) + sqr(state[iy_]));
  // Sound "exists": only rule out when the whole enclosure is clear.
  return mode_ == Mode::kInner ? r.lo() < threshold_ : r.hi() > threshold_;
}

BoxRegion::BoxRegion(std::vector<std::pair<std::size_t, Interval>> constraints)
    : constraints_(std::move(constraints)) {
  if (constraints_.empty()) {
    throw std::invalid_argument("BoxRegion: at least one constraint required");
  }
}

bool BoxRegion::contains_point(const Vec& state, std::size_t /*command*/) const {
  for (const auto& [idx, iv] : constraints_) {
    if (!iv.contains(state[idx])) {
      return false;
    }
  }
  return true;
}

bool BoxRegion::certainly_contains(const Box& state, std::size_t /*command*/) const {
  for (const auto& [idx, iv] : constraints_) {
    if (!iv.contains(state[idx])) {
      return false;
    }
  }
  return true;
}

bool BoxRegion::possibly_intersects(const Box& state, std::size_t /*command*/) const {
  for (const auto& [idx, iv] : constraints_) {
    if (!iv.intersects(state[idx])) {
      return false;
    }
  }
  return true;
}

UnionRegion::UnionRegion(std::unique_ptr<StateRegion> a, std::unique_ptr<StateRegion> b)
    : a_(std::move(a)), b_(std::move(b)) {
  if (!a_ || !b_) {
    throw std::invalid_argument("UnionRegion: both parts are required");
  }
}

}  // namespace nncs
