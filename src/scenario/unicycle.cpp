#include "scenario/unicycle.hpp"

#include <algorithm>
#include <cmath>

#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace nncs::scenario {

namespace {

constexpr double kPeriod = 0.25;
constexpr double kSpeed = 1.0;
constexpr double kOffsetMin = -1.0;
constexpr double kOffsetMax = 1.0;
constexpr double kHeadingMin = -0.7;
constexpr double kHeadingMax = 0.7;
/// E: the vehicle has left the corridor |y| < kCorridor.
constexpr double kCorridor = 3.0;
/// Straight-ahead command index (initial command).
constexpr std::size_t kStraightCommand = 2;
/// Invalidates the on-disk net cache whenever the training recipe changes.
constexpr const char* kTrainingStamp =
    "v1;hidden=16|16;epochs=40;lr=0.002;seed=5;samples=10000;rngseed=11;steer=0.6|2";

const Vec& turn_rates() {
  static const Vec kTurnRates{-1.0, -0.5, 0.0, 0.5, 1.0};
  return kTurnRates;
}

struct UnicycleField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const auto [sp, cp] = sincos(s[2]);
    out[0] = Interval{kSpeed} * cp + 0.0 * s[0];  // x' = v·cos ψ
    out[1] = Interval{kSpeed} * sp + 0.0 * s[1];  // y' = v·sin ψ
    out[2] = u[0] + 0.0 * s[2];                   // ψ' = u
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    const auto [sp, cp] = sincos(s[2]);
    out[0] = kSpeed * cp;
    out[1] = kSpeed * sp;
    out[2] = u[0];
  }
};

/// Steering policy the network imitates: head toward the centerline with a
/// bounded approach angle, then track that desired heading.
double expert_turn_rate(double y, double psi) {
  const double psi_desired = std::clamp(-0.6 * y, -0.7, 0.7);
  return std::clamp(2.0 * (psi_desired - psi), -1.0, 1.0);
}

Network train_policy_network() {
  Dataset data;
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double y = rng.uniform(-4.0, 4.0);
    const double psi = rng.uniform(-1.6, 1.6);
    const double u_star = expert_turn_rate(y, psi);
    Vec scores(turn_rates().size());
    for (std::size_t k = 0; k < turn_rates().size(); ++k) {
      scores[k] = std::fabs(turn_rates()[k] - u_star);  // argmin snaps to nearest
    }
    data.add(Vec{y / 4.0, psi / 1.6}, scores);
  }
  TrainerConfig config;
  config.hidden = {16, 16};
  config.epochs = 40;
  config.learning_rate = 2e-3;
  config.seed = 5;
  return Trainer(config).train(data, 2, turn_rates().size());
}

/// The network only sees the cross-track error and heading; the along-track
/// position cannot matter for corridor keeping.
class SteerPre final : public Preprocessor {
 public:
  [[nodiscard]] std::size_t input_dim() const override { return 3; }
  [[nodiscard]] std::size_t output_dim() const override { return 2; }
  [[nodiscard]] Vec eval(const Vec& s) const override { return Vec{s[1] / 4.0, s[2] / 1.6}; }
  [[nodiscard]] Box eval_abstract(const Box& s) const override {
    return Box{s[1] / Interval{4.0}, s[2] / Interval{1.6}};
  }
};

class UnicycleScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "unicycle"; }

  [[nodiscard]] std::string description() const override {
    return "Unicycle corridor keeping: learned steering policy holds |y| < 3 m "
           "over a 4 s horizon";
  }

  [[nodiscard]] std::string version() const override { return "1"; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> parameters() const override {
    return {{"period", "0.25"},
            {"speed", "1"},
            {"y0", "-1:1"},
            {"psi0", "-0.7:0.7"},
            {"corridor", "3"},
            {"training", kTrainingStamp}};
  }

  [[nodiscard]] std::pair<std::string, std::string> axis_names() const override {
    return {"offset-cells", "heading-cells"};
  }

  [[nodiscard]] Partition default_partition() const override { return {8, 8}; }

  [[nodiscard]] std::pair<std::string, std::string> bin_axis() const override {
    return {"offset", "offset_mid_m"};
  }

  [[nodiscard]] std::unique_ptr<Dynamics> make_plant() const override {
    return make_dynamics(3, 1, UnicycleField{});
  }

  [[nodiscard]] System make_system(const SystemConfig& config) const override {
    return make_single_network_system(config, name(), kTrainingStamp, train_policy_network,
                                      turn_rates(), std::make_unique<SteerPre>(), make_plant(),
                                      kPeriod);
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_error_region() const override {
    // E: |y| >= kCorridor.
    return std::make_unique<UnionRegion>(
        std::make_unique<BoxRegion>(BoxRegion({{1, Interval{-1e6, -kCorridor}}})),
        std::make_unique<BoxRegion>(BoxRegion({{1, Interval{kCorridor, 1e6}}})));
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_target_region() const override {
    return std::make_unique<EmptyRegion>();  // pure horizon property
  }

  [[nodiscard]] std::vector<Cell> make_cells(const Partition& partition) const override {
    // x0 = 0: the along-track position cannot matter for corridor keeping.
    return grid_cells(resolve(*this, partition), {1, kOffsetMin, kOffsetMax},
                      {2, kHeadingMin, kHeadingMax}, Vec(3), kStraightCommand);
  }

  [[nodiscard]] VerifyConfig default_config() const override {
    VerifyConfig config;
    config.reach.control_steps = 16;  // τ = 4 s
    config.reach.integration_steps = 2;
    config.reach.gamma = 10;
    config.max_refinement_depth = 1;
    config.split_dims = {1, 2};
    return config;
  }

  [[nodiscard]] int default_taylor_order() const override { return 3; }

  [[nodiscard]] SmokeSpec smoke() const override {
    SmokeSpec spec;
    spec.partition = {6, 6};
    spec.expected = SmokeExpectation::kAllSafe;
    return spec;
  }
};

}  // namespace

std::unique_ptr<Scenario> make_unicycle_scenario() {
  return std::make_unique<UnicycleScenario>();
}

}  // namespace nncs::scenario
