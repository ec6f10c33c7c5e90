#include "acasxu/scenario.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "acasxu/dynamics.hpp"
#include "acasxu/geometry.hpp"
#include "acasxu/policy.hpp"

namespace nncs::acasxu {

namespace {

constexpr double kPi = std::numbers::pi;

}  // namespace

double cone_center(double bearing) {
  return bearing < 0.0 ? bearing + kPi : bearing - kPi;
}

RobustnessFn make_robustness() {
  return [](const Vec& s) { return std::hypot(s[kIdxX], s[kIdxY]) - kCollisionRadius; };
}

Vec initial_state(double bearing, double heading_fraction) {
  const Vec position = circle_point(kSensorRange, bearing);
  const double center = cone_center(bearing);
  const double psi = center - kPi / 2.0 + kPi * heading_fraction;
  return Vec{position[0], position[1], psi, kVown, kVint};
}

InitialSampler make_sampler() {
  return [](const Vec& params01) -> std::pair<Vec, std::size_t> {
    if (params01.size() != 2) {
      throw std::invalid_argument("acasxu sampler: expected 2 parameters");
    }
    const double bearing = -kPi + 2.0 * kPi * params01[0];
    return {initial_state(bearing, params01[1]), kCoc};
  };
}

}  // namespace nncs::acasxu
