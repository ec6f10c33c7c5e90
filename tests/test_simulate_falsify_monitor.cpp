// Tests for the concrete closed-loop simulator, the trajectory-robustness
// falsifier and the runtime safety monitor.

#include <gtest/gtest.h>

#include "closed_loop_fixtures.hpp"
#include "core/engine.hpp"
#include "core/falsifier.hpp"
#include "core/monitor.hpp"
#include "core/simulate.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::threshold_controller;

const TaylorIntegrator kIntegrator;

TEST(SimulateClosedLoop, TerminatesAtTarget) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);  // always coast
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const BoxRegion target({{0, Interval{10.0, 1e9}}});
  // Moving away at 1/s from p = 5: reaches p >= 10 at t = 5 (sampled at 5).
  const auto sim = simulate_closed_loop(system, Vec{5.0, -1.0}, 0, error, target, 20, 4);
  EXPECT_TRUE(sim.reached_target);
  EXPECT_FALSE(sim.reached_error);
  EXPECT_EQ(sim.steps, 5);
}

TEST(SimulateClosedLoop, DetectsErrorMidPeriod) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  // p = 0.5, v = 2: collision at t = 0.25, inside the first period.
  const auto sim = simulate_closed_loop(system, Vec{0.5, 2.0}, 0, error, target, 20, 8);
  EXPECT_TRUE(sim.reached_error);
  EXPECT_EQ(sim.steps, 1);
  // The trajectory ends at the first substep past the error.
  EXPECT_LE(sim.trajectory.back().state[0], 0.0);
}

TEST(SimulateClosedLoop, TrajectoryTimingAndCommands) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(100.0, -1.0);  // brakes immediately (p < 100)
  const ClosedLoop system{plant.get(), ctrl.get(), 0.5};
  const BoxRegion error({{0, Interval{-1e9, -1e8}}});
  const EmptyRegion target;
  const auto sim = simulate_closed_loop(system, Vec{50.0, 0.0}, 0, error, target, 3, 2);
  // 3 steps x 2 substeps + initial point.
  ASSERT_EQ(sim.trajectory.size(), 7u);
  EXPECT_DOUBLE_EQ(sim.trajectory[0].t, 0.0);
  EXPECT_DOUBLE_EQ(sim.trajectory[2].t, 0.5);
  EXPECT_DOUBLE_EQ(sim.trajectory.back().t, 1.5);
  // Initial command applies over the first period; the controller's brake
  // decision (made at t=0) takes effect from the second period on.
  EXPECT_EQ(sim.trajectory[1].command, 0u);
  EXPECT_EQ(sim.trajectory[3].command, 1u);
}

TEST(SimulateClosedLoop, RobustnessTracksMinimum) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const BoxRegion target({{0, Interval{10.0, 1e9}}});
  // v = -1 from p = 3: minimum distance is the initial 3.
  const auto sim = simulate_closed_loop(
      system, Vec{3.0, -1.0}, 0, error, target, 20, 4, [](const Vec& s) { return s[0]; });
  EXPECT_DOUBLE_EQ(sim.min_robustness, 3.0);
}

TEST(SimulateClosedLoop, ValidatesArguments) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(0.0, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  EXPECT_THROW(simulate_closed_loop(system, Vec{1.0, 0.0}, 0, error, target, 0, 4),
               std::invalid_argument);
  const ClosedLoop broken{plant.get(), nullptr, 1.0};
  EXPECT_THROW(simulate_closed_loop(broken, Vec{1.0, 0.0}, 0, error, target, 5, 4),
               std::invalid_argument);
}

TEST(Falsifier, FindsCollisionInUnsafeSystem) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);  // never brakes
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  // Search space: p0 in [1, 30], v0 in [-1, 3]. Positive v0 collides.
  const InitialSampler sampler = [](const Vec& p) {
    return std::make_pair(Vec{1.0 + 29.0 * p[0], -1.0 + 4.0 * p[1]}, std::size_t{0});
  };
  FalsifierConfig config;
  config.param_dim = 2;
  config.random_samples = 50;
  config.max_steps = 25;
  const Falsifier falsifier(config);
  const auto result = falsifier.run(system, sampler, error, target,
                                    [](const Vec& s) { return s[0]; });
  EXPECT_TRUE(result.falsified);
  EXPECT_LT(result.best_robustness, 0.0);
  EXPECT_TRUE(result.trace.reached_error);
  EXPECT_GT(result.initial_state[1], 0.0);  // the culprit closes in
}

TEST(Falsifier, ReportsNearMissOnSafeSystem) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const BoxRegion target({{0, Interval{100.0, 1e9}}});
  // Only receding vehicles: v0 in [-3, -1]; min distance = p0 >= 2.
  const InitialSampler sampler = [](const Vec& p) {
    return std::make_pair(Vec{2.0 + 10.0 * p[0], -3.0 + 2.0 * p[1]}, std::size_t{0});
  };
  FalsifierConfig config;
  config.param_dim = 2;
  config.random_samples = 40;
  config.local_iterations = 100;
  config.max_steps = 30;
  const Falsifier falsifier(config);
  const auto result = falsifier.run(system, sampler, error, target,
                                    [](const Vec& s) { return s[0]; });
  EXPECT_FALSE(result.falsified);
  // The local search should drive the most critical sample near p0 = 2.
  EXPECT_LT(result.best_robustness, 3.0);
  EXPECT_GE(result.best_robustness, 2.0 - 1e-6);
}

TEST(Falsifier, DeterministicForFixedSeed) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  const InitialSampler sampler = [](const Vec& p) {
    return std::make_pair(Vec{1.0 + 29.0 * p[0], -1.0 + 4.0 * p[1]}, std::size_t{0});
  };
  FalsifierConfig config;
  config.param_dim = 2;
  config.random_samples = 30;
  const Falsifier falsifier(config);
  const auto a =
      falsifier.run(system, sampler, error, target, [](const Vec& s) { return s[0]; });
  const auto b =
      falsifier.run(system, sampler, error, target, [](const Vec& s) { return s[0]; });
  EXPECT_EQ(a.best_robustness, b.best_robustness);
  EXPECT_EQ(a.initial_state, b.initial_state);
  EXPECT_EQ(a.simulations, b.simulations);
}

TEST(Falsifier, ValidatesConfigAndArguments) {
  FalsifierConfig bad;
  bad.param_dim = 0;
  EXPECT_THROW(Falsifier{bad}, std::invalid_argument);

  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(0.0, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  const Falsifier falsifier(FalsifierConfig{});
  EXPECT_THROW(falsifier.run(system, nullptr, error, target, [](const Vec&) { return 0.0; }),
               std::invalid_argument);
}

TEST(Monitor, AnswersFromProvedCells) {
  std::vector<SymbolicState> proved{
      {Box{Interval{0.0, 1.0}, Interval{0.0, 1.0}}, 0},
      {Box{Interval{2.0, 3.0}, Interval{0.0, 1.0}}, 1},
  };
  const SafetyMonitor monitor(std::move(proved));
  EXPECT_EQ(monitor.num_cells(), 2u);
  EXPECT_EQ(monitor.query(Vec{0.5, 0.5}, 0), SafetyMonitor::Answer::kProvedSafe);
  // Same state, different command: unknown.
  EXPECT_EQ(monitor.query(Vec{0.5, 0.5}, 1), SafetyMonitor::Answer::kUnknown);
  EXPECT_EQ(monitor.query(Vec{2.5, 0.5}, 1), SafetyMonitor::Answer::kProvedSafe);
  EXPECT_EQ(monitor.query(Vec{5.0, 0.5}, 0), SafetyMonitor::Answer::kUnknown);
}

TEST(Monitor, BuildsFromVerifyReport) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const BoxRegion target({{0, Interval{20.0, 1e9}}});
  SymbolicSet cells{
      {Box{Interval{5.0, 6.0}, Interval{-2.0, -1.0}}, 0},  // safe (receding)
      {Box{Interval{5.0, 6.0}, Interval{1.0, 2.0}}, 0},    // unsafe (closing)
  };
  VerifyConfig vc;
  vc.reach.control_steps = 30;
  vc.reach.integration_steps = 2;
  vc.reach.gamma = 4;
  vc.reach.integrator = &kIntegrator;
  vc.max_refinement_depth = 0;
  const auto report =
      VerificationEngine(system, error, target).run(cells, EngineConfig{vc}).report;
  const auto monitor = SafetyMonitor::from_report(report);
  EXPECT_EQ(monitor.num_cells(), 1u);
  EXPECT_EQ(monitor.query(Vec{5.5, -1.5}, 0), SafetyMonitor::Answer::kProvedSafe);
  EXPECT_EQ(monitor.query(Vec{5.5, 1.5}, 0), SafetyMonitor::Answer::kUnknown);
}

}  // namespace
}  // namespace nncs
