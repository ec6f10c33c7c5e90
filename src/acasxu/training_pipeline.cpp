#include "acasxu/training_pipeline.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

#include "acasxu/dynamics.hpp"
#include "nn/net_cache.hpp"

namespace nncs::acasxu {

std::string config_stamp(const TrainingConfig& config) {
  std::ostringstream oss;
  oss << "v3;hidden=";
  for (const auto h : config.trainer.hidden) {
    oss << h << ',';
  }
  oss << ";epochs=" << config.trainer.epochs << ";batch=" << config.trainer.batch_size
      << ";lr=" << config.trainer.learning_rate << ";tseed=" << config.trainer.seed
      << ";samples=" << config.samples_per_network << ";seed=" << config.seed
      << ";rho=" << config.rho_min << ':' << config.rho_max << ";psi=" << config.psi_range
      << ";v=" << config.vown << ':' << config.vint << ";policy=" << config.policy.horizon << ','
      << config.policy.dt << ',' << config.policy.collision_radius << ','
      << config.policy.safe_distance << ',' << config.policy.separation_weight << ','
      << config.policy.collision_penalty << ',' << config.policy.alert_cost << ','
      << config.policy.strong_cost << ',' << config.policy.reversal_cost << ','
      << config.policy.switch_cost;
  return oss.str();
}

Dataset make_dataset(std::size_t previous_advisory, const TrainingConfig& config, Rng& rng) {
  Dataset data;
  data.inputs.reserve(config.samples_per_network);
  data.targets.reserve(config.samples_per_network);
  constexpr double kPi = std::numbers::pi;
  // Close-range geometries (small ρ) are where the scores vary fastest
  // (separation cost slope ~1/ft); sample them at double density so the
  // regression spends its capacity where the argmin actually changes.
  const double rho_split = std::min(3000.0, config.rho_max);
  for (std::size_t i = 0; i < config.samples_per_network; ++i) {
    const double rho0 = rng.chance(0.5) ? rng.uniform(config.rho_min, rho_split)
                                        : rng.uniform(rho_split, config.rho_max);
    const double theta0 = rng.uniform(-kPi, kPi);
    const double psi0 = rng.uniform(-config.psi_range, config.psi_range);
    // Position at bearing θ on the circle of radius ρ (θ convention of
    // geometry.hpp: x = −ρ sin θ, y = ρ cos θ).
    const Vec state{-rho0 * std::sin(theta0), rho0 * std::cos(theta0), psi0, config.vown,
                    config.vint};
    const Vec polar{rho0, theta0, psi0, config.vown, config.vint};
    // Train on mean-centered scores ("advantages"): the argmin Post is
    // invariant to per-state constant shifts, and removing the common-mode
    // danger level (which spans [0, 35]) lets the regression spend its
    // capacity on the inter-advisory differences that actually decide the
    // command.
    Vec scores = advisory_scores(state, previous_advisory, config.policy);
    double mean = 0.0;
    for (const double s : scores) {
      mean += s;
    }
    mean /= static_cast<double>(scores.size());
    for (double& s : scores) {
      s -= mean;
    }
    data.add(normalize_features(polar), std::move(scores));
  }
  return data;
}

std::vector<Network> train_networks(const TrainingConfig& config) {
  std::vector<Network> networks;
  networks.reserve(kNumAdvisories);
  Rng rng(config.seed);
  for (std::size_t prev = 0; prev < kNumAdvisories; ++prev) {
    const Dataset data = make_dataset(prev, config, rng);
    TrainerConfig tc = config.trainer;
    tc.seed = config.trainer.seed + prev;  // distinct init per network
    const Trainer trainer(tc);
    networks.push_back(trainer.train(data, kStateDim, kNumAdvisories));
  }
  return networks;
}

std::vector<Network> ensure_networks(const std::filesystem::path& cache_dir,
                                     const TrainingConfig& config) {
  return nncs::ensure_networks(cache_dir, "acas_net_", config_stamp(config), kNumAdvisories,
                               [&] { return train_networks(config); });
}

}  // namespace nncs::acasxu
