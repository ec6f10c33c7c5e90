#include "acasxu/geometry.hpp"

#include <cmath>
#include <stdexcept>

namespace nncs::acasxu {

double rho(double x, double y) { return std::hypot(x, y); }

Interval rho(const Interval& x, const Interval& y) { return sqrt(sqr(x) + sqr(y)); }

double theta(double x, double y) { return std::atan2(-x, y); }

Interval theta(const Interval& x, const Interval& y) { return atan2(-x, y); }

Vec circle_point(double radius, double bearing) {
  return Vec{-radius * std::sin(bearing), radius * std::cos(bearing)};
}

namespace {

constexpr std::size_t kNumFeatures = 5;

}  // namespace

Vec normalize_features(const Vec& polar) {
  const Normalization& norm = kNormalization;
  if (polar.size() != kNumFeatures) {
    throw std::invalid_argument("normalize_features: expected 5 features");
  }
  return Vec{(polar[0] - norm.rho_mean) / norm.rho_range,
             (polar[1] - norm.angle_mean) / norm.angle_range,
             (polar[2] - norm.angle_mean) / norm.angle_range,
             (polar[3] - norm.vown_mean) / norm.vown_range,
             (polar[4] - norm.vint_mean) / norm.vint_range};
}

Box normalize_features(const Box& polar) {
  const Normalization& norm = kNormalization;
  if (polar.dim() != kNumFeatures) {
    throw std::invalid_argument("normalize_features: expected 5 features");
  }
  return Box{(polar[0] - Interval{norm.rho_mean}) / Interval{norm.rho_range},
             (polar[1] - Interval{norm.angle_mean}) / Interval{norm.angle_range},
             (polar[2] - Interval{norm.angle_mean}) / Interval{norm.angle_range},
             (polar[3] - Interval{norm.vown_mean}) / Interval{norm.vown_range},
             (polar[4] - Interval{norm.vint_mean}) / Interval{norm.vint_range}};
}

Vec mirror_state(const Vec& state) {
  if (state.size() != kNumFeatures) {
    throw std::invalid_argument("mirror_state: expected 5-dimensional state");
  }
  const double x = state[0];
  const double y = state[1];
  const double psi = state[2];
  const double c = std::cos(psi);
  const double s = std::sin(psi);
  return Vec{-x * c - y * s, x * s - y * c, -psi, state[4], state[3]};
}

Box mirror_state(const Box& state) {
  if (state.dim() != kNumFeatures) {
    throw std::invalid_argument("mirror_state: expected 5-dimensional state");
  }
  const Interval& x = state[0];
  const Interval& y = state[1];
  const Interval& psi = state[2];
  const Interval c = cos(psi);
  const Interval s = sin(psi);
  return Box{-(x * c) - y * s, x * s - y * c, -psi, state[4], state[3]};
}

}  // namespace nncs::acasxu
