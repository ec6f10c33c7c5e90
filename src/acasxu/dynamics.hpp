#pragma once

#include <memory>

#include "ode/dynamics.hpp"

namespace nncs::acasxu {

/// State vector layout of the ACAS Xu plant (paper Example 1/2):
///   s = (x, y, ψ, v_own, v_int)
/// where (x, y) is the intruder position relative to the ownship *in the
/// ownship body frame* (+y = ownship heading, +x = ownship right), ψ is the
/// intruder heading relative to the ownship heading (counter-clockwise) and
/// the velocities are constant.
inline constexpr std::size_t kStateDim = 5;
inline constexpr std::size_t kIdxX = 0;
inline constexpr std::size_t kIdxY = 1;
inline constexpr std::size_t kIdxPsi = 2;
inline constexpr std::size_t kIdxVown = 3;
inline constexpr std::size_t kIdxVint = 4;

/// The command is the ownship turn rate u (rad/s, counter-clockwise).
inline constexpr std::size_t kCommandDim = 1;

/// The 2D non-linear kinematics of paper eq. (1), in the rotating body
/// frame (see DESIGN.md §2 for the derivation):
///   x'     =  v_int·(−sin ψ) + u·y
///   y'     =  v_int·cos ψ − v_own − u·x
///   ψ'     = −u
///   v_own' =  0
///   v_int' =  0
/// Generic over the scalar type so the same field drives the concrete RK4
/// simulator, the Picard enclosure and the Taylor-series integrator.
struct KinematicsField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const auto [sp, cp] = sincos(s[kIdxPsi]);
    out[kIdxX] = s[kIdxVint] * (-sp) + u[0] * s[kIdxY];
    out[kIdxY] = s[kIdxVint] * cp - s[kIdxVown] - u[0] * s[kIdxX];
    out[kIdxPsi] = -u[0];
    out[kIdxVown] = 0.0 * s[kIdxVown];
    out[kIdxVint] = 0.0 * s[kIdxVint];
  }
};

/// The plant P as a `Dynamics` instance.
std::unique_ptr<Dynamics> make_dynamics();

/// Dual-equipage variant (paper §8 future work): BOTH aircraft run a
/// collision-avoidance controller, so the command is (u_own, u_int) and the
/// intruder's turn also drives the relative heading:
///   x'     =  v_int·(−sin ψ) + u_own·y
///   y'     =  v_int·cos ψ − v_own − u_own·x
///   ψ'     =  u_int − u_own
///   v'     =  0
struct DualKinematicsField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const auto [sp, cp] = sincos(s[kIdxPsi]);
    out[kIdxX] = s[kIdxVint] * (-sp) + u[0] * s[kIdxY];
    out[kIdxY] = s[kIdxVint] * cp - s[kIdxVown] - u[0] * s[kIdxX];
    out[kIdxPsi] = u[1] - u[0];
    out[kIdxVown] = 0.0 * s[kIdxVown];
    out[kIdxVint] = 0.0 * s[kIdxVint];
  }
};

/// The dual-equipage plant (command dimension 2).
std::unique_ptr<Dynamics> make_dual_dynamics();

}  // namespace nncs::acasxu
