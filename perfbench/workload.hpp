#pragma once

/// Workloads of the end-to-end verification benchmark: which scenario each
/// one verifies under which settings, how its root cells are drawn from the
/// seed, and the assembly of the closed loop through the public scenario
/// registry.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "ode/validated_integrator.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

/// Engine worker threads of every run (the machine the shares in README.md
/// were measured on has 4 cores; 2 leave room for the rest of the system).
inline constexpr std::size_t kThreads = 2;

/// One benchmark workload. Zero overrides keep the scenario's default;
/// everything not listed (NN domain, memo cache, nn_batch, SIMD back end)
/// is the program default.
struct WorkloadSpec {
  std::string name;
  std::string scenario;
  nncs::LoopDomain domain = nncs::LoopDomain::kBox;
  int control_steps = 0;
  int integration_steps = 0;
  nncs::scenario::Partition partition;
  /// Stratified draw (when `per_block` > 0): the partition grid is tiled
  /// into blocks of `block0` x `block1` cells along its two axes and
  /// `per_block` distinct cells are drawn from every block.
  std::size_t block0 = 1;
  std::size_t block1 = 1;
  std::size_t per_block = 0;
  /// Positional draw (when > 0): this many cells of the default partition's
  /// cell size, placed uniformly at random inside the hull of the default
  /// partition.
  std::size_t positions = 0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when unknown.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Root cells of `spec` for `seed`: the same seed always gives the same
/// cells, in the same order. Assumes `make_cells` lists the partition
/// axis-0-major (true of every built-in scenario).
[[nodiscard]] nncs::SymbolicSet root_cells(const nncs::scenario::Scenario& scenario,
                                           const WorkloadSpec& spec, std::uint64_t seed);

/// A workload's closed loop, regions, integrator, engine settings and root
/// cells, plus how long assembling them took.
struct Setup {
  nncs::scenario::System system;
  std::unique_ptr<nncs::StateRegion> error;
  std::unique_ptr<nncs::StateRegion> target;
  std::unique_ptr<nncs::TaylorIntegrator> integrator;
  /// `engine.verify.reach.integrator` points at `*integrator`.
  nncs::EngineConfig engine;
  nncs::SymbolicSet cells;
  /// True when the scenario's target set is empty: the property is bounded
  /// horizon safety, so a horizon-exhausted leaf is a proof of it.
  bool horizon_is_proof = false;
  double make_system_s = 0.0;
  double cells_s = 0.0;
};

/// Assemble `spec` for `seed`, loading (or, when missing or stale,
/// training) the networks under `nets_dir/<scenario>`.
[[nodiscard]] Setup assemble(const WorkloadSpec& spec, std::uint64_t seed,
                             const std::filesystem::path& nets_dir);

/// Split factor of the paper's coverage weights under `config`.
[[nodiscard]] std::size_t split_factor(const nncs::VerifyConfig& config);

}  // namespace perfbench
