// ACAS Xu closed-loop reachability behaviour tests with a deliberately tiny
// (fast-to-train) controller: provable overtaking cells, unprovable coarse
// head-on cells, termination detection, and the dual-equipage loop.

#include <gtest/gtest.h>

#include <numbers>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/geometry.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/product_controller.hpp"
#include "core/reachability.hpp"
#include "scenario/scenario.hpp"

namespace nncs::acasxu {
namespace {

constexpr double kPi = std::numbers::pi;

/// One shared tiny controller for the whole file (trained once).
const std::vector<Network>& tiny_networks() {
  static const std::vector<Network> nets = [] {
    TrainingConfig config;
    config.trainer.hidden = {12, 12};
    config.trainer.epochs = 8;
    config.samples_per_network = 2000;
    return train_networks(config);
  }();
  return nets;
}

struct Fixture {
  std::unique_ptr<Dynamics> plant = make_dynamics();
  std::unique_ptr<NeuralController> controller = make_controller(tiny_networks());
  ClosedLoop loop{plant.get(), controller.get(), 1.0};
  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  std::unique_ptr<StateRegion> error_region = scen.make_error_region();
  std::unique_ptr<StateRegion> target_region = scen.make_target_region();
  const StateRegion& error = *error_region;
  const StateRegion& target = *target_region;
  TaylorIntegrator integrator;

  ReachConfig config() const {
    ReachConfig rc = scen.default_config().reach;
    rc.integrator = &integrator;
    return rc;
  }
};

TEST(AcasReach, OvertakingCellProvesSafeWithTermination) {
  Fixture f;
  // Intruder directly behind (bearing -pi), flying the same direction as
  // the ownship: the faster ownship pulls away and the intruder leaves the
  // sensor circle.
  const Vec center = initial_state(-kPi + 0.01, 0.5);
  const Box cell{Interval::centered(center[0], 30.0), Interval::centered(center[1], 30.0),
                 Interval::centered(center[2], 0.005), Interval{700.0}, Interval{600.0}};
  const auto result =
      reach_analyze(f.loop, SymbolicSet{{cell, kCoc}}, f.error, f.target, f.config());
  EXPECT_EQ(result.outcome, ReachOutcome::kProvedSafe);
  // Overtaking at 100 ft/s from rho = 8000: termination within a few steps
  // (the intruder starts on the circle and exits almost immediately).
  EXPECT_LE(result.stats.steps_executed, 20);
}

TEST(AcasReach, CoarseHeadOnCellIsNotProvable) {
  Fixture f;
  // A cell as wide as the paper-scale experiment is *fine*, but a 2000 ft
  // wide head-on cell necessarily sweeps through the collision cylinder.
  const Vec center = initial_state(0.0, 0.5);
  const Box cell{Interval::centered(center[0], 1000.0),
                 Interval::centered(center[1], 1000.0), Interval::centered(center[2], 0.2),
                 Interval{700.0}, Interval{600.0}};
  const auto result =
      reach_analyze(f.loop, SymbolicSet{{cell, kCoc}}, f.error, f.target, f.config());
  EXPECT_EQ(result.outcome, ReachOutcome::kErrorReachable);
}

TEST(AcasReach, GammaIsRespectedAcrossTheHorizon) {
  Fixture f;
  const Vec center = initial_state(1.2, 0.3);
  const Box cell{Interval::centered(center[0], 200.0), Interval::centered(center[1], 200.0),
                 Interval::centered(center[2], 0.05), Interval{700.0}, Interval{600.0}};
  auto rc = f.config();
  rc.gamma = 5;
  rc.record = true;
  const auto result =
      reach_analyze(f.loop, SymbolicSet{{cell, kCoc}}, f.error, f.target, rc);
  ASSERT_GE(result.sampled_sets.size(), 2u);
  for (std::size_t j = 0; j + 1 < result.sampled_sets.size(); ++j) {
    EXPECT_LE(result.sampled_sets[j].size(), 5u);
  }
}

TEST(AcasReach, SampledSetsStayOnPlausibleGeometry) {
  Fixture f;
  // rho can never exceed the initial 8000 ft by more than the worst closing
  // speed times the elapsed time (plus enclosure growth).
  const Vec center = initial_state(2.0, 0.5);
  const Box cell{Interval::centered(center[0], 50.0), Interval::centered(center[1], 50.0),
                 Interval::centered(center[2], 0.01), Interval{700.0}, Interval{600.0}};
  auto rc = f.config();
  rc.record = true;
  const auto result =
      reach_analyze(f.loop, SymbolicSet{{cell, kCoc}}, f.error, f.target, rc);
  ASSERT_FALSE(result.sampled_sets.empty());
  for (std::size_t j = 0; j < result.sampled_sets.size(); ++j) {
    for (const auto& state : result.sampled_sets[j]) {
      const Interval r = rho(state.box()[kIdxX], state.box()[kIdxY]);
      ASSERT_LE(r.hi(), 8000.0 + 1300.0 * static_cast<double>(j) + 500.0);
    }
  }
}

TEST(AcasReach, DualEquipageLoopRunsTheSameMachinery) {
  Fixture f;
  const auto dual_plant = make_dual_dynamics();
  const auto intruder_controller = make_controller(tiny_networks());
  const StateView mirror{[](const Vec& s) { return mirror_state(s); },
                         [](const Box& b) { return mirror_state(b); }};
  const ProductController dual(*f.controller, *intruder_controller, identity_view(), mirror,
                               kStateDim);
  const ClosedLoop dual_loop{dual_plant.get(), &dual, 1.0};
  const Vec center = initial_state(-kPi + 0.01, 0.5);
  const Box cell{Interval::centered(center[0], 30.0), Interval::centered(center[1], 30.0),
                 Interval::centered(center[2], 0.005), Interval{700.0}, Interval{600.0}};
  auto rc = f.config();
  rc.gamma = 25;  // Remark 3: gamma >= |U_own x U_int|
  const auto result =
      reach_analyze(dual_loop, SymbolicSet{{cell, 0}}, f.error, f.target, rc);
  // The overtaking geometry is benign for both agents.
  EXPECT_EQ(result.outcome, ReachOutcome::kProvedSafe);
}

TEST(AcasReach, RecordsOffendingStateOnFailure) {
  Fixture f;
  const Vec center = initial_state(0.0, 0.5);
  const Box cell{Interval::centered(center[0], 1500.0),
                 Interval::centered(center[1], 1500.0), Interval::centered(center[2], 0.3),
                 Interval{700.0}, Interval{600.0}};
  const auto result =
      reach_analyze(f.loop, SymbolicSet{{cell, kCoc}}, f.error, f.target, f.config());
  ASSERT_EQ(result.outcome, ReachOutcome::kErrorReachable);
  ASSERT_TRUE(result.offending.has_value());
  EXPECT_GE(result.offending_step, 0);
  // The offending enclosure really does touch the collision cylinder.
  EXPECT_TRUE(f.error.possibly_intersects(result.offending->box(), result.offending->command));
}

}  // namespace
}  // namespace nncs::acasxu
