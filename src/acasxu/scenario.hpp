#pragma once

#include "core/falsifier.hpp"

namespace nncs::acasxu {

/// The encounter of §7.1 / Example 1: the intruder is first detected on the
/// sensor circle R (ρ0 = kSensorRange), heading into the circle, both
/// velocities fixed, initial advisory COC; the system is verified until the
/// intruder leaves R (target set T) against the collision cylinder E
/// (ρ < kCollisionRadius). The registered "acasxu" scenario
/// (src/scenario/acasxu_scenario.cpp) builds its partition and regions from
/// these; the falsifier inputs below sample the same initial set.
inline constexpr double kSensorRange = 8000.0;     // ft
inline constexpr double kCollisionRadius = 500.0;  // ft
inline constexpr double kVown = 700.0;             // ft/s
inline constexpr double kVint = 600.0;             // ft/s

/// Center of the penetration cone for bearing b ∈ [−π, π): the heading
/// pointing straight at the ownship, shifted into the principal range so ψ0
/// stays within the networks' trained domain. The representative is chosen
/// by the *sign of the bearing* (b + π for b < 0, b − π for b >= 0), which
/// is continuous on each half-circle; the partition aligns its arc grid on
/// b = 0 so every arc uses a single branch — keeping the sampler and the
/// cells consistent (ψ is a plain real number in the plant model, so the
/// representative choice must match everywhere).
double cone_center(double bearing);

/// Trajectory robustness ρ − kCollisionRadius (ft of separation margin).
RobustnessFn make_robustness();

/// Falsification search space: params01 = (bearing fraction, heading
/// fraction) → exact on-circle initial state with COC.
InitialSampler make_sampler();

/// Concrete initial state at bearing b and heading fraction f ∈ [0,1]
/// within the penetration cone (f = 0.5 is head-on toward the ownship).
Vec initial_state(double bearing, double heading_fraction);

}  // namespace nncs::acasxu
