#include "scenario/pendulum.hpp"

#include <algorithm>
#include <cmath>

#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace nncs::scenario {

namespace {

constexpr double kPeriod = 0.1;
/// Gravity over pendulum length g/l (hanging equilibrium, so the restoring
/// torque is −(g/l)·sin θ and the open loop is a damped oscillator).
constexpr double kGl = 5.0;
constexpr double kDamping = 1.0;
/// Initial partition range per axis: θ, ω ∈ [-kInit, kInit].
constexpr double kInit = 0.3;
/// E: the pendulum has swung past |θ| >= kThetaFail.
constexpr double kThetaFail = 0.8;
/// T: the settle basin |θ| <= kThetaSettle, |ω| <= kOmegaSettle. Its total
/// mechanical energy (ω²/2 + (g/l)(1 − cos θ) <= 0.55) is far below the
/// 1.52 needed to reach the |θ| = 0.8 barrier, so "certainly inside T"
/// really means the swing has decayed for good.
constexpr double kThetaSettle = 0.15;
constexpr double kOmegaSettle = 0.3;
/// θ is fed to the network scaled by 1/kThetaScale (an exact power of two,
/// so the affine pre-image stays representable without rounding slack).
constexpr double kThetaScale = 0.5;
/// Zero-torque command index (initial command).
constexpr std::size_t kZeroTorque = 1;
/// Invalidates the on-disk net cache whenever the training recipe changes.
constexpr const char* kTrainingStamp =
    "v4;hidden=16|16;epochs=40;lr=0.002;seed=7;samples=8000;rngseed=13;"
    "expert=2|2;torques=2|0;damping=1";

const Vec& torques() {
  static const Vec kTorques{-2.0, 0.0, 2.0};
  return kTorques;
}

struct PendulumField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];  // θ' = ω
    // ω' = −(g/l)·sin θ − c·ω + u
    out[1] = Interval{-kGl} * sin(s[0]) - Interval{kDamping} * s[1] + u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = s[1];
    out[1] = -kGl * std::sin(s[0]) - kDamping * s[1] + u[0];
  }
};

/// Linearization at the hanging equilibrium: f = A·s + B·u + g with
///   g(s) = (0, −(g/l)(sin θ − θ)),
/// the cubic-small residual the affine integrator treats as pure error while
/// applying A exactly on the noise symbols. The generic interval recovery of
/// g (f − A·s − B·u) is ~2(g/l)|θ|-wide from dependency loss, which drowns
/// the affine advantage — so declare the tight extension: sin x − x is
/// non-increasing (d/dx = cos x − 1 ≤ 0), hence its exact range over
/// [lo, hi] lies between its endpoint values, and the hull of the two
/// outward-rounded endpoint evaluations is a sound O(|θ|³) enclosure.
LinearPart pendulum_linear_part() {
  LinearPart lp{{0.0, 1.0, -kGl, -kDamping}, {0.0, 1.0}};
  lp.residual = [](std::span<const Interval> s, std::span<Interval> out) {
    const Interval lo{s[0].lo()};
    const Interval hi{s[0].hi()};
    const Interval h_range = hull(sin(lo) - lo, sin(hi) - hi);
    out[0] = Interval{};
    out[1] = Interval{-kGl} * h_range;
  };
  return lp;
}

/// Torque policy the network imitates: PD feedback toward the hanging rest
/// point, snapped to the discrete torque set by the argmin post-processing.
double expert_torque(double theta, double omega) {
  return std::clamp(-2.0 * theta - 2.0 * omega, -2.0, 2.0);
}

Network train_policy_network() {
  Dataset data;
  Rng rng(13);
  for (int i = 0; i < 8000; ++i) {
    const double theta = rng.uniform(-1.0, 1.0);
    const double omega = rng.uniform(-1.5, 1.5);
    const double u_star = expert_torque(theta, omega);
    Vec scores(torques().size());
    for (std::size_t k = 0; k < torques().size(); ++k) {
      scores[k] = std::fabs(torques()[k] - u_star);  // argmin snaps to nearest
    }
    data.add(Vec{theta / kThetaScale, omega}, scores);
  }
  TrainerConfig config;
  config.hidden = {16, 16};
  config.epochs = 40;
  config.learning_rate = 2e-3;
  config.seed = 7;
  return Trainer(config).train(data, 2, torques().size());
}

/// Diagonal input scaling (θ/kThetaScale, ω). The affine-set overload is
/// the exact linear image, so the correlations the integrator preserved
/// reach the network — the default concretize-and-relift would box them
/// away right at the controller boundary.
class TiltPre final : public Preprocessor {
 public:
  [[nodiscard]] std::size_t input_dim() const override { return 2; }
  [[nodiscard]] std::size_t output_dim() const override { return 2; }
  [[nodiscard]] Vec eval(const Vec& s) const override {
    return Vec{s[0] / kThetaScale, s[1]};
  }
  [[nodiscard]] Box eval_abstract(const Box& s) const override {
    return Box{s[0] / Interval{kThetaScale}, s[1]};
  }
  [[nodiscard]] AffineSet eval_abstract(const AffineSet& state) const override {
    IntervalMatrix scale(2, 2);
    scale.at(0, 0) = Interval{1.0 / kThetaScale};
    scale.at(1, 1) = Interval{1.0};
    return state.linear_image(scale);
  }
};

class PendulumScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "pendulum"; }

  [[nodiscard]] std::string description() const override {
    return "Damped pendulum: learned discrete-torque policy drives every cell "
           "into the settle basin without ever tipping past |theta| = 0.8 "
           "(zonotope loop domain)";
  }

  [[nodiscard]] std::string version() const override { return "1"; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> parameters() const override {
    return {{"period", "0.1"},
            {"g_over_l", "5"},
            {"damping", "1"},
            {"theta0", "-0.3:0.3"},
            {"omega0", "-0.3:0.3"},
            {"theta_fail", "0.8"},
            {"theta_settle", "0.15"},
            {"omega_settle", "0.3"},
            {"training", kTrainingStamp}};
  }

  [[nodiscard]] std::pair<std::string, std::string> axis_names() const override {
    return {"theta-cells", "omega-cells"};
  }

  [[nodiscard]] Partition default_partition() const override { return {8, 8}; }

  [[nodiscard]] std::pair<std::string, std::string> bin_axis() const override {
    return {"theta", "theta_mid_rad"};
  }

  [[nodiscard]] std::unique_ptr<Dynamics> make_plant() const override {
    return make_dynamics(2, 1, PendulumField{}, pendulum_linear_part());
  }

  [[nodiscard]] System make_system(const SystemConfig& config) const override {
    return make_single_network_system(config, name(), kTrainingStamp, train_policy_network,
                                      torques(), std::make_unique<TiltPre>(), make_plant(),
                                      kPeriod);
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_error_region() const override {
    // E: |θ| >= kThetaFail.
    return std::make_unique<UnionRegion>(
        std::make_unique<BoxRegion>(BoxRegion({{0, Interval{-1e6, -kThetaFail}}})),
        std::make_unique<BoxRegion>(BoxRegion({{0, Interval{kThetaFail, 1e6}}})));
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_target_region() const override {
    return std::make_unique<BoxRegion>(std::vector<std::pair<std::size_t, Interval>>{
        {0, Interval{-kThetaSettle, kThetaSettle}}, {1, Interval{-kOmegaSettle, kOmegaSettle}}});
  }

  [[nodiscard]] std::vector<Cell> make_cells(const Partition& partition) const override {
    return grid_cells(resolve(*this, partition), {0, -kInit, kInit}, {1, -kInit, kInit},
                      Vec(2), kZeroTorque);
  }

  [[nodiscard]] VerifyConfig default_config() const override {
    VerifyConfig config;
    config.reach.control_steps = 30;  // τ = 3 s
    config.reach.integration_steps = 2;
    config.reach.gamma = 12;
    config.reach.domain = LoopDomain::kZonotope;
    config.max_refinement_depth = 2;
    config.split_dims = {0, 1};
    return config;
  }

  [[nodiscard]] int default_taylor_order() const override { return 4; }

  [[nodiscard]] SmokeSpec smoke() const override {
    SmokeSpec spec;
    // Depth-2 children of the 8x8 grid are the coarsest cells whose settled
    // width keeps u* inside the zero-torque dead zone (no command chatter);
    // a 4x4 smoke grid would bottom out too wide and fail spuriously.
    spec.partition = {8, 8};
    spec.expected = SmokeExpectation::kAllProved;
    return spec;
  }
};

}  // namespace

std::unique_ptr<Scenario> make_pendulum_scenario() {
  return std::make_unique<PendulumScenario>();
}

}  // namespace nncs::scenario
