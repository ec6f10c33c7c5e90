#include "scenario/cruise_control.hpp"

#include <algorithm>
#include <cmath>

#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace nncs::scenario {

namespace {

constexpr double kPeriod = 0.25;
constexpr double kGapMin = 30.0;
constexpr double kGapMax = 80.0;
constexpr double kVrMin = -6.0;
constexpr double kVrMax = 2.0;
constexpr double kGapFloor = 2.0;
/// Coast (u = 0) — index into kAccels — is the initial command.
constexpr std::size_t kCoastCommand = 2;
/// Invalidates the on-disk net cache whenever the training recipe changes.
constexpr const char* kTrainingStamp =
    "v1;hidden=24|24;epochs=50;lr=0.002;seed=22;samples=12000;rngseed=21";

const Vec& accels() {
  static const Vec kAccels{-3.0, -1.0, 0.0, 2.0};
  return kAccels;
}

struct AccField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];   // d'  = vr
    out[1] = -u[0] + 0.0 * s[1];  // vr' = −u
  }
};

/// Spacing policy the network imitates: drive the gap toward a headway
/// target and damp the closing speed (saturated linear feedback).
double expert_accel(double d, double vr) {
  const double d_target = 15.0;
  return std::clamp(0.08 * (d - d_target) + 0.9 * vr, -3.0, 2.0);
}

Network train_policy_network() {
  Dataset data;
  Rng rng(21);
  for (int i = 0; i < 12000; ++i) {
    const double d = rng.uniform(0.0, 100.0);
    const double vr = rng.uniform(-10.0, 6.0);
    const double u_star = expert_accel(d, vr);
    Vec scores(accels().size());
    for (std::size_t k = 0; k < accels().size(); ++k) {
      scores[k] = std::fabs(accels()[k] - u_star) / 5.0;  // argmin snaps to nearest
    }
    data.add(Vec{d / 100.0, vr / 10.0}, scores);
  }
  TrainerConfig config;
  config.hidden = {24, 24};
  config.epochs = 50;
  config.learning_rate = 2e-3;
  config.seed = 22;
  return Trainer(config).train(data, 2, accels().size());
}

class AccPre final : public Preprocessor {
 public:
  [[nodiscard]] std::size_t input_dim() const override { return 2; }
  [[nodiscard]] std::size_t output_dim() const override { return 2; }
  [[nodiscard]] Vec eval(const Vec& s) const override { return Vec{s[0] / 100.0, s[1] / 10.0}; }
  [[nodiscard]] Box eval_abstract(const Box& s) const override {
    return Box{s[0] / Interval{100.0}, s[1] / Interval{10.0}};
  }
};

class CruiseControlScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "cruise_control"; }

  [[nodiscard]] std::string description() const override {
    return "Adaptive cruise control: learned spacing policy keeps the gap above 2 m "
           "over a 6 s horizon";
  }

  [[nodiscard]] std::string version() const override { return "1"; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> parameters() const override {
    return {{"period", "0.25"},
            {"gap0", "30:80"},
            {"vr0", "-6:2"},
            {"gap_floor", "2"},
            {"training", kTrainingStamp}};
  }

  [[nodiscard]] std::pair<std::string, std::string> axis_names() const override {
    return {"gap-cells", "speed-cells"};
  }

  [[nodiscard]] Partition default_partition() const override { return {10, 8}; }

  [[nodiscard]] std::pair<std::string, std::string> bin_axis() const override {
    return {"gap", "gap_mid_m"};
  }

  [[nodiscard]] std::unique_ptr<Dynamics> make_plant() const override {
    return make_dynamics(2, 1, AccField{});
  }

  [[nodiscard]] System make_system(const SystemConfig& config) const override {
    return make_single_network_system(config, name(), kTrainingStamp, train_policy_network,
                                      accels(), std::make_unique<AccPre>(), make_plant(),
                                      kPeriod);
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_error_region() const override {
    // E: gap <= 2 m.
    return std::make_unique<BoxRegion>(
        std::vector<std::pair<std::size_t, Interval>>{{0, Interval{-1e6, kGapFloor}}});
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_target_region() const override {
    return std::make_unique<EmptyRegion>();  // pure horizon property
  }

  [[nodiscard]] std::vector<Cell> make_cells(const Partition& partition) const override {
    return grid_cells(resolve(*this, partition), {0, kGapMin, kGapMax}, {1, kVrMin, kVrMax},
                      Vec(2), kCoastCommand);
  }

  [[nodiscard]] VerifyConfig default_config() const override {
    VerifyConfig config;
    config.reach.control_steps = 24;  // τ = 6 s
    config.reach.integration_steps = 2;
    config.reach.gamma = 24;
    config.max_refinement_depth = 1;
    config.split_dims = {0, 1};
    return config;
  }

  [[nodiscard]] SmokeSpec smoke() const override {
    SmokeSpec spec;
    spec.partition = {6, 6};
    spec.expected = SmokeExpectation::kAllSafe;
    return spec;
  }
};

}  // namespace

std::unique_ptr<Scenario> make_cruise_control_scenario() {
  return std::make_unique<CruiseControlScenario>();
}

}  // namespace nncs::scenario
