#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace nncs::scenario {

/// The paper's §7.1 ACAS Xu workload (src/acasxu/) as a registered
/// scenario, and the one definition of its verification problem: intruder
/// first detected on the sensor circle, verified against the collision
/// cylinder until it escapes sensor range. Partition axes are (bearing arcs,
/// headings per arc) of the Fig 8 ribbon partition; the bin axis is the
/// intruder bearing. Defaults: 32x8 cells, q=20, M=10, Γ=5, depth 1, split
/// x/y/ψ, nets in ./acasxu_nets_cache.
std::unique_ptr<Scenario> make_acasxu_scenario();

}  // namespace nncs::scenario
