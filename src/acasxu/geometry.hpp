#pragma once

#include "interval/box.hpp"
#include "interval/scalar_ops.hpp"

namespace nncs::acasxu {

/// Polar features of the encounter geometry (paper Fig 1):
///   ρ = distance ownship → intruder,
///   θ = bearing of the intruder w.r.t. the ownship heading, measured
///       counter-clockwise (θ = atan2(−x, y) in the body frame where
///       +y is the heading and +x is to the right).
double rho(double x, double y);
Interval rho(const Interval& x, const Interval& y);

double theta(double x, double y);
Interval theta(const Interval& x, const Interval& y);

/// Position on the sensor circle of radius r at bearing b (same θ
/// convention): x = −r·sin b, y = r·cos b.
Vec circle_point(double radius, double bearing);

/// Normalization applied to the network inputs (ρ, θ, ψ, v_own, v_int) —
/// the same affine (value − mean)/range scheme as the public ACAS Xu
/// networks. One constant, `kNormalization`: the cached networks were
/// trained under it, and their cache stamp (`config_stamp`) does not record
/// it.
struct Normalization {
  double rho_mean;
  double rho_range;
  double angle_mean;
  double angle_range;
  double vown_mean;
  double vown_range;
  double vint_mean;
  double vint_range;
};
inline constexpr Normalization kNormalization{
    .rho_mean = 19791.091,
    .rho_range = 60261.0,
    .angle_mean = 0.0,
    .angle_range = 6.28318530718,
    .vown_mean = 650.0,
    .vown_range = 1100.0,
    .vint_mean = 600.0,
    .vint_range = 1200.0,
};

/// Normalize the 5 polar features with `kNormalization` (generic over
/// double/Interval via the two overloads).
Vec normalize_features(const Vec& polar);
Box normalize_features(const Box& polar);

/// Frame mirror for the dual-equipage extension: express the encounter from
/// the *intruder's* point of view. Given the global state
/// s = (x, y, ψ, v_own, v_int) in the ownship body frame, the intruder sees
/// the ownship at
///   d = R(−ψ)·(−x, −y) = (−x·cos ψ − y·sin ψ,  x·sin ψ − y·cos ψ),
/// with relative heading −ψ and the two speeds swapped. The Box overload is
/// a sound enclosure (interval rotation).
Vec mirror_state(const Vec& state);
Box mirror_state(const Box& state);

}  // namespace nncs::acasxu
