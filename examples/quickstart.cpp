/// Quickstart: verify a neural-network-controlled emergency braking system.
///
/// The plant is a vehicle approaching an obstacle:
///     state s = (p, v)   p = distance to the obstacle (ft),
///                        v = closing speed (ft/s)
///     dynamics  p' = −v,  v' = u
/// The controller runs every T = 0.25 s, reads (p, v) and chooses between
/// two commands, COAST (u = 0) and BRAKE (u = −8 ft/s²), with a small ReLU
/// network trained here on-the-fly to imitate a stopping-distance rule.
///
/// Safety question (the paper's problem V): starting from any
/// p0 ∈ [40, 100] ft, v0 ∈ [10, 20] ft/s, does the vehicle provably stop
/// (T: v ≤ 0.5) before hitting the obstacle (E: p ≤ 0)?
///
/// This file walks through the full public API:
///   1. describe the plant as a generic-scalar `Dynamics`,
///   2. train a controller network with the in-repo `Trainer`,
///   3. assemble the generic `NeuralController` (Pre, λ, Post),
///   4. run the `VerificationEngine` over a partition of the initial set.

#include <cstdio>
#include <memory>

#include "core/reachability.hpp"
#include "core/engine.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace nncs;

constexpr double kBrake = -8.0;
constexpr double kPeriod = 0.25;

/// 1. The plant, written once, generically over the scalar type: the same
/// code is evaluated on doubles (simulation) and intervals (Picard
/// enclosure), and called once over the recording scalar `TapeVar` to record
/// the tape whose sweep gives the Taylor coefficients (validated
/// integration).
struct BrakingField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = -s[1];           // p' = −v
    out[1] = u[0] + 0.0 * s[0];  // v' = u
  }
};

/// The rule the networks imitate, with hysteresis split across the two
/// networks the λ selector switches between (the paper's mechanism for
/// command-history-dependent behaviour):
///  * previous command COAST: start braking as soon as the kinematic
///    stopping distance plus a margin exceeds the remaining distance;
///  * previous command BRAKE: keep braking until (nearly) stopped.
/// Without the hysteresis the rule chatters between COAST and BRAKE on
/// approach, which makes the termination proof needlessly hard.
bool should_brake(double p, double v, bool braking) {
  if (braking) {
    return v > 0.05;
  }
  const double stopping = v * v / (2.0 * -kBrake);
  return stopping + 1.5 * v * kPeriod + 12.0 > p;
}

Network train_controller_network(bool braking) {
  // 2. Supervised learning on the rule: two "cost" outputs, argmin selects
  // the command (COAST = index 0, BRAKE = index 1).
  Dataset data;
  Rng rng(1);
  for (int i = 0; i < 8000; ++i) {
    const double p = rng.uniform(-5.0, 120.0);
    const double v = rng.uniform(-2.0, 25.0);
    const bool brake = should_brake(p, v, braking);
    data.add(Vec{p / 100.0, v / 25.0},  // normalized inputs
             brake ? Vec{1.0, 0.0} : Vec{0.0, 1.0});
  }
  TrainerConfig config;
  config.hidden = {16, 16};
  config.epochs = 60;
  config.learning_rate = 3e-3;
  config.seed = braking ? 3 : 2;
  return Trainer(config).train(data, 2, 2);
}

/// Pre-processing: the same normalization the training data used.
class BrakingPre final : public Preprocessor {
 public:
  [[nodiscard]] std::size_t input_dim() const override { return 2; }
  [[nodiscard]] std::size_t output_dim() const override { return 2; }
  [[nodiscard]] Vec eval(const Vec& s) const override { return Vec{s[0] / 100.0, s[1] / 25.0}; }
  [[nodiscard]] Box eval_abstract(const Box& s) const override {
    return Box{s[0] / Interval{100.0}, s[1] / Interval{25.0}};
  }
};

}  // namespace

int main() {
  std::printf("nncsverif quickstart: braking controller verification\n\n");

  // 3. Assemble the closed loop C = (P, N).
  const auto plant = make_dynamics(2, 1, BrakingField{});
  CommandSet commands({Vec{0.0}, Vec{kBrake}});
  std::vector<Network> networks;
  networks.push_back(train_controller_network(/*braking=*/false));
  networks.push_back(train_controller_network(/*braking=*/true));
  // λ: previous command COAST selects network 0, BRAKE selects network 1.
  NeuralController controller(std::move(commands), std::move(networks), {0, 1},
                              std::make_unique<BrakingPre>());
  const ClosedLoop system{plant.get(), &controller, kPeriod};

  // E: collision (p <= 0); T: stopped (v <= 0.5).
  const BoxRegion error({{0, Interval{-1e6, 0.0}}});
  const BoxRegion target({{1, Interval{-1e6, 0.5}}});

  // 4. Partition the initial set into cells and verify each one.
  SymbolicSet cells;
  const int kP = 12, kV = 8;
  for (int i = 0; i < kP; ++i) {
    for (int j = 0; j < kV; ++j) {
      const double p_lo = 40.0 + 60.0 * i / kP;
      const double v_lo = 10.0 + 10.0 * j / kV;
      cells.push_back(SymbolicState{
          Box{Interval{p_lo, p_lo + 60.0 / kP}, Interval{v_lo, v_lo + 10.0 / kV}}, 0});
    }
  }

  const TaylorIntegrator integrator;
  VerifyConfig config;
  config.reach.control_steps = 60;        // τ = 15 s
  config.reach.integration_steps = 4;     // M
  config.reach.gamma = 12;                // Γ
  config.reach.integrator = &integrator;
  config.max_refinement_depth = 2;
  config.split_dims = {0, 1};
  config.threads = 4;

  const VerificationEngine engine(system, error, target);
  const VerifyReport report = engine.run(cells, EngineConfig{config}).report;

  std::printf("cells:            %zu\n", report.root_cells);
  std::printf("proved leaves:    %zu\n", report.proved_leaves);
  std::printf("failed leaves:    %zu\n", report.failed_leaves);
  std::printf("coverage:         %.1f %%\n", report.coverage_percent);
  std::printf("wall time:        %.2f s\n", report.seconds);
  std::printf("\n%s\n", report.coverage_percent >= 99.9
                            ? "PROVED: the vehicle always stops before the obstacle."
                            : "Not fully proved; see per-cell results.");
  return report.coverage_percent >= 99.9 ? 0 : 1;
}
