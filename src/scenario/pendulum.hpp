#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace nncs::scenario {

/// Damped (hanging) pendulum stabilized by a learned discrete-torque policy
/// — the showcase workload of the zonotope loop domain: its rotational
/// dynamics make the boxed loop wrap at every hand-off, so the same
/// partition and budget verify under `--domain zonotope` and fail under
/// `--domain symbolic`, the box loop.
std::unique_ptr<Scenario> make_pendulum_scenario();

}  // namespace nncs::scenario
