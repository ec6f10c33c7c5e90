// End-to-end integration tests: train a controller, verify cells, and
// cross-check the formal verdicts against concrete simulation — the
// full-pipeline version of Theorem 1's guarantee.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/engine.hpp"
#include "core/falsifier.hpp"
#include "core/monitor.hpp"
#include "core/simulate.hpp"
#include "nn/trainer.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

const TaylorIntegrator kIntegrator;

/// Train-and-verify on the braking system (the quickstart, shrunk): a
/// trained (not hand-built) controller network must yield a full proof.
struct TrainedBrakingSystem {
  static constexpr double kBrake = -8.0;
  static constexpr double kPeriod = 0.25;

  struct Field {
    template <class S>
    void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
      out[0] = -s[1] + 0.0 * s[0];
      out[1] = u[0] + 0.0 * s[1];
    }
  };

  class Pre final : public Preprocessor {
   public:
    [[nodiscard]] std::size_t input_dim() const override { return 2; }
    [[nodiscard]] std::size_t output_dim() const override { return 2; }
    [[nodiscard]] Vec eval(const Vec& s) const override {
      return Vec{s[0] / 100.0, s[1] / 25.0};
    }
    [[nodiscard]] Box eval_abstract(const Box& s) const override {
      return Box{s[0] / Interval{100.0}, s[1] / Interval{25.0}};
    }
  };

  static bool should_brake(double p, double v, bool braking) {
    if (braking) {
      return v > 0.05;
    }
    return v * v / 16.0 + 1.5 * v * kPeriod + 12.0 > p;
  }

  static Network train(bool braking) {
    Dataset data;
    Rng rng(braking ? 101 : 100);
    for (int i = 0; i < 6000; ++i) {
      const double p = rng.uniform(-5.0, 120.0);
      const double v = rng.uniform(-2.0, 25.0);
      data.add(Vec{p / 100.0, v / 25.0},
               should_brake(p, v, braking) ? Vec{1.0, 0.0} : Vec{0.0, 1.0});
    }
    TrainerConfig config;
    config.hidden = {16, 16};
    config.epochs = 50;
    config.learning_rate = 3e-3;
    config.seed = braking ? 7 : 6;
    return Trainer(config).train(data, 2, 2);
  }
};

TEST(Integration, TrainedBrakingControllerProvesSafe) {
  using Sys = TrainedBrakingSystem;
  const auto plant = make_dynamics(2, 1, Sys::Field{});
  std::vector<Network> nets;
  nets.push_back(Sys::train(false));
  nets.push_back(Sys::train(true));
  NeuralController ctrl(CommandSet({Vec{0.0}, Vec{Sys::kBrake}}), std::move(nets), {0, 1},
                        std::make_unique<Sys::Pre>());
  const ClosedLoop system{plant.get(), &ctrl, Sys::kPeriod};
  const BoxRegion error({{0, Interval{-1e6, 0.0}}});
  const BoxRegion target({{1, Interval{-1e6, 0.5}}});

  SymbolicSet cells;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double p_lo = 50.0 + 8.0 * i;
      const double v_lo = 12.0 + 1.5 * j;
      cells.push_back(
          {Box{Interval{p_lo, p_lo + 8.0}, Interval{v_lo, v_lo + 1.5}}, 0});
    }
  }
  VerifyConfig config;
  config.reach.control_steps = 60;
  config.reach.integration_steps = 4;
  config.reach.gamma = 12;
  config.reach.integrator = &kIntegrator;
  config.max_refinement_depth = 2;
  config.split_dims = {0, 1};
  config.threads = 2;
  const auto report =
      VerificationEngine(system, error, target).run(cells, EngineConfig{config}).report;
  EXPECT_DOUBLE_EQ(report.coverage_percent, 100.0);

  // Spot-check the proof with concrete runs from random proved states.
  const auto monitor = SafetyMonitor::from_report(report);
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec s0{rng.uniform(50.0, 98.0), rng.uniform(12.0, 18.0)};
    if (monitor.query(s0, 0) != SafetyMonitor::Answer::kProvedSafe) {
      continue;
    }
    const auto sim = simulate_closed_loop(system, s0, 0, error, target, 60, 8);
    EXPECT_FALSE(sim.reached_error);
    EXPECT_TRUE(sim.reached_target);
  }
}

/// Tiny end-to-end ACAS Xu: train small networks, verify a handful of
/// cells, and validate every verdict against concrete simulation.
TEST(Integration, AcasXuMiniVerificationIsSoundAgainstSimulation) {
  namespace ax = acasxu;
  ax::TrainingConfig training;
  training.trainer.hidden = {16, 16};
  training.trainer.epochs = 12;
  training.samples_per_network = 4000;
  const auto networks = ax::train_networks(training);

  const auto plant = ax::make_dynamics();
  const auto controller = ax::make_controller(networks);
  const ClosedLoop system{plant.get(), controller.get(), 1.0};

  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  auto all_cells = scen.make_cells({60, 12});
  // Keep only the "intruder behind" arcs (bearing near −π): overtaking
  // geometries keep a large separation, so these cells are provable even
  // without refinement — which is what this test needs to have teeth.
  std::vector<scenario::Cell> cells;
  for (auto& cell : all_cells) {
    if (cell.bin_hi < -std::numbers::pi + 3.0 * (2.0 * std::numbers::pi / 60.0)) {
      cells.push_back(std::move(cell));
    }
  }
  ASSERT_FALSE(cells.empty());
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  VerifyConfig config = scen.default_config();
  config.reach.integration_steps = 5;
  config.reach.integrator = &kIntegrator;
  config.max_refinement_depth = 0;  // keep runtime small
  config.threads = 2;
  const auto report = VerificationEngine(system, *error, *target)
                          .run(scenario::to_symbolic_set(cells), EngineConfig{config})
                          .report;
  ASSERT_EQ(report.leaves.size(), cells.size());

  // For every cell PROVED safe, no concretely simulated trajectory from
  // inside it may reach E before termination (Theorem 1 at system level).
  Rng rng(77);
  int checked = 0;
  for (const auto& leaf : report.leaves) {
    if (leaf.outcome != ReachOutcome::kProvedSafe) {
      continue;
    }
    for (int s = 0; s < 5; ++s) {
      Vec s0(ax::kStateDim);
      for (std::size_t d = 0; d < ax::kStateDim; ++d) {
        s0[d] = rng.uniform(leaf.initial.box()[d].lo(), leaf.initial.box()[d].hi());
      }
      const auto sim = simulate_closed_loop(system, s0, leaf.initial.command, *error, *target,
                                            20, 20);
      EXPECT_FALSE(sim.reached_error) << "proved-safe cell produced a concrete collision";
      ++checked;
    }
  }
  // The run must actually have proved something for this test to bite.
  EXPECT_GT(checked, 0);
}

/// Falsifier vs verifier consistency: a state the falsifier drives into E
/// must never lie inside a proved cell.
TEST(Integration, FalsifierNeverContradictsProofs) {
  using Sys = TrainedBrakingSystem;
  const auto plant = make_dynamics(2, 1, Sys::Field{});
  // Hand-built *unsafe* controller: never brakes.
  Network never;
  {
    Network net = make_zero_network({2, 2});
    net.layer(0).biases[1] = 1.0;  // brake score always 1 > coast score 0
    never = std::move(net);
  }
  std::vector<Network> nets;
  nets.push_back(std::move(never));
  NeuralController ctrl(CommandSet({Vec{0.0}, Vec{Sys::kBrake}}), std::move(nets), {0, 0},
                        std::make_unique<Sys::Pre>());
  const ClosedLoop system{plant.get(), &ctrl, Sys::kPeriod};
  const BoxRegion error({{0, Interval{-1e6, 0.0}}});
  const BoxRegion target({{1, Interval{-1e6, 0.5}}});

  SymbolicSet cells{{Box{Interval{10.0, 40.0}, Interval{5.0, 15.0}}, 0}};
  VerifyConfig vc;
  vc.reach.control_steps = 40;
  vc.reach.integration_steps = 2;
  vc.reach.gamma = 8;
  vc.reach.integrator = &kIntegrator;
  vc.max_refinement_depth = 1;
  vc.split_dims = {0, 1};
  const auto report =
      VerificationEngine(system, error, target).run(cells, EngineConfig{vc}).report;
  EXPECT_EQ(report.proved_leaves, 0u);  // everything collides

  const InitialSampler sampler = [](const Vec& p) {
    return std::make_pair(Vec{10.0 + 30.0 * p[0], 5.0 + 10.0 * p[1]}, std::size_t{0});
  };
  FalsifierConfig fc;
  fc.param_dim = 2;
  fc.random_samples = 20;
  fc.max_steps = 40;
  const auto falsification = Falsifier(fc).run(system, sampler, error, target,
                                               [](const Vec& s) { return s[0]; });
  EXPECT_TRUE(falsification.falsified);
  const auto monitor = SafetyMonitor::from_report(report);
  EXPECT_EQ(monitor.query(falsification.initial_state, 0), SafetyMonitor::Answer::kUnknown);
}

}  // namespace
}  // namespace nncs
