#pragma once

#include <cstddef>
#include <vector>

#include "core/falsifier.hpp"
#include "core/specs.hpp"
#include "core/symbolic_state.hpp"

namespace nncs::acasxu {

/// The verification scenario of §7.1 / Example 1: the intruder is first
/// detected on the sensor circle R (ρ0 = sensor_range), heading into the
/// circle, both velocities fixed, initial advisory COC; the system is
/// verified until the intruder leaves R (target set T) against the
/// collision cylinder E (ρ < collision_radius).
struct ScenarioConfig {
  double sensor_range = 8000.0;
  double collision_radius = 500.0;
  double vown = 700.0;
  double vint = 600.0;
  /// Partition resolution (the paper uses 629 arcs × 316 headings; our
  /// defaults are bench-scale — see DESIGN.md substitution 4).
  std::size_t num_arcs = 48;
  std::size_t num_headings = 10;
};

/// One cell of the ribbon partition (Fig 8), keeping the generating
/// parameters so figure benches can bin results by intruder bearing.
struct InitialCell {
  SymbolicState state;
  /// Bearing interval of the arc (radians, θ convention, in [−π, π)).
  double bearing_lo = 0.0;
  double bearing_hi = 0.0;
  /// Heading interval of the cell (relative heading ψ0).
  double psi_lo = 0.0;
  double psi_hi = 0.0;
};

/// Build the ribbon partition of the initial set: `num_arcs` bearing
/// segments × `num_headings` heading segments within the penetration cone
/// (the half-circle of headings pointing into R). Every returned symbolic
/// state carries the COC command.
std::vector<InitialCell> make_initial_cells(const ScenarioConfig& config);

/// Strip the metadata (for feeding the verification engine).
SymbolicSet to_symbolic_set(const std::vector<InitialCell>& cells);

/// E: collision cylinder ρ < collision_radius.
RadialRegion make_error_region(const ScenarioConfig& config);
/// T: sensor escape ρ > sensor_range.
RadialRegion make_target_region(const ScenarioConfig& config);

/// Trajectory robustness ρ − collision_radius (ft of separation margin).
RobustnessFn make_robustness(const ScenarioConfig& config);

/// Falsification search space: params01 = (bearing fraction, heading
/// fraction) → exact on-circle initial state with COC.
InitialSampler make_sampler(const ScenarioConfig& config);

/// Concrete initial state at bearing b and heading fraction f ∈ [0,1]
/// within the penetration cone (f = 0.5 is head-on toward the ownship).
Vec initial_state(const ScenarioConfig& config, double bearing, double heading_fraction);

/// The dimensions bisected by split refinement (x0, y0, ψ0 — §7.1).
std::vector<std::size_t> split_dimensions();

}  // namespace nncs::acasxu
