#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "acasxu/geometry.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/scenario.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace nncs::acasxu {

/// How the 5 advisory networks are synthesized (DESIGN.md, substitution 1):
/// sample encounter geometries, label them with the ground-truth policy
/// scores, and fit one ReLU network per previous advisory with the in-repo
/// Adam trainer.
struct TrainingConfig {
  TrainerConfig trainer{.epochs = 60};
  PolicyConfig policy;
  std::size_t samples_per_network = 30000;
  /// Sampling ranges for the encounter geometry. ψ is sampled (and the
  /// networks are therefore valid) well beyond [−π, π] because the plant
  /// model integrates ψ without wrapping (ψ drifts by up to q·T·3 deg/s).
  double rho_min = 100.0;
  double rho_max = 9500.0;
  double psi_range = 6.0;
  double vown = kVown;
  double vint = kVint;
  std::uint64_t seed = 7;
};

/// Human-readable stamp identifying a config; changing any field that
/// affects the trained networks changes the stamp, invalidating the cache.
std::string config_stamp(const TrainingConfig& config);

/// Generate the labelled dataset for the network associated with
/// `previous_advisory` (inputs: normalized polar features; targets:
/// advisory scores).
Dataset make_dataset(std::size_t previous_advisory, const TrainingConfig& config, Rng& rng);

/// Train all 5 networks from scratch (deterministic for a fixed config).
std::vector<Network> train_networks(const TrainingConfig& config);

/// Load the 5 networks from `cache_dir` when present and trained with an
/// identical config; otherwise train and populate the cache
/// (`nncs::ensure_networks` with the file stem `acas_net_`). This keeps the
/// figure benches fast across runs.
std::vector<Network> ensure_networks(const std::filesystem::path& cache_dir,
                                     const TrainingConfig& config);

}  // namespace nncs::acasxu
