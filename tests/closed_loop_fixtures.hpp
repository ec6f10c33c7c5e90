#pragma once

// Shared closed-loop fixtures for the core tests: tiny plants with
// hand-built (exact, not trained) controller networks so every behaviour is
// predictable.

#include <memory>

#include "core/reachability.hpp"

namespace nncs::testing_fixtures {

/// Plant: p' = -v, v' = u  (distance to an obstacle and closing speed).
struct BrakingField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = -s[1] + 0.0 * s[0];
    out[1] = u[0] + 0.0 * s[1];
  }
};

inline std::unique_ptr<Dynamics> braking_plant() {
  return make_dynamics(2, 1, BrakingField{});
}

/// Harmonic oscillator with angular rate omega: p' = omega*q, q' = -omega*p.
struct OscField {
  double omega;
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = Interval{omega} * s[1] + 0.0 * u[0];
    out[1] = -(Interval{omega} * s[0]) + 0.0 * u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = omega * s[1] + 0.0 * u[0];
    out[1] = -omega * s[0];
  }
};

inline std::unique_ptr<Dynamics> oscillator_plant(double omega) {
  return make_dynamics(2, 1, OscField{omega});
}

/// Controller with commands {COAST = 0 (u=0), BRAKE = 1 (u=brake_accel)}
/// implementing the exact rule "brake iff p < threshold" via a single
/// affine network y = (threshold - p, 0): argmin selects BRAKE exactly when
/// threshold - p > 0. A threshold of -infinity yields an always-coast
/// controller; +infinity always brakes.
inline std::unique_ptr<NeuralController> threshold_controller(double threshold,
                                                              double brake_accel,
                                                              NnDomain domain =
                                                                  NnDomain::kSymbolic) {
  Network net = make_zero_network({2, 2});
  net.layer(0).weights(0, 0) = -1.0;  // y0 = threshold - p
  net.layer(0).biases[0] = threshold;
  // y1 = 0 always.
  std::vector<Network> nets;
  nets.push_back(std::move(net));
  return std::make_unique<NeuralController>(
      CommandSet({Vec{0.0}, Vec{brake_accel}}), std::move(nets),
      std::vector<std::size_t>{0, 0}, std::make_unique<IdentityPre>(2), domain);
}

}  // namespace nncs::testing_fixtures
