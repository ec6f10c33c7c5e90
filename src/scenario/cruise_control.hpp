#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace nncs::scenario {

/// Adaptive cruise control (ACC) — a standard closed-loop NN verification
/// benchmark, run as `nncs_verify --scenario cruise_control`. Bounded-horizon
/// safety with no termination set:
///
///   state s = (d, vr)   d  = gap to the lead vehicle (m),
///                       vr = v_lead − v_ego (m/s; negative = closing)
///   dynamics d' = vr,  vr' = −u        (lead at constant speed,
///                                        u = ego acceleration)
///
/// The controller runs every T = 0.25 s and picks the ego acceleration from
/// {−3, −1, 0, +2} m/s² with a network imitating a saturated linear spacing
/// policy (trained with a fixed seed, cached in ./cruise_control_nets_cache).
///
/// Property: from any d0 ∈ [30, 80] m, vr0 ∈ [−6, 2] m/s, the gap provably
/// never drops below 2 m during the first 6 s (the closing phase). With no
/// target set, the successful verdict is kHorizonExhausted leaves with no
/// error intersection. Partition axes are (gap cells, closing-speed cells);
/// the bin axis is the initial gap.
std::unique_ptr<Scenario> make_cruise_control_scenario();

}  // namespace nncs::scenario
