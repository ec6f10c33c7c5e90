// Tests for Algorithm 3 (the closed-loop reachability analysis): error
// detection, termination, horizon semantics, branching, Γ enforcement, the
// unsound discrete-instant baseline, and the sampled-set soundness property
// against the concrete simulator.

#include <gtest/gtest.h>

#include <numbers>

#include "closed_loop_fixtures.hpp"
#include "core/simulate.hpp"
#include "ode/concrete_integrator.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::oscillator_plant;
using testing_fixtures::threshold_controller;

const TaylorIntegrator kIntegrator;

ReachConfig base_config(int steps) {
  ReachConfig config;
  config.control_steps = steps;
  config.integration_steps = 4;
  config.gamma = 8;
  config.integrator = &kIntegrator;
  return config;
}

/// `base_config` that records R̃_j and the flowpipes, for tests that read
/// them.
ReachConfig recording_config(int steps) {
  ReachConfig config = base_config(steps);
  config.record = true;
  return config;
}

TEST(Reachability, DetectsErrorOnCollisionCourse) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);  // never brakes
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  // p0 in [5, 6], v = 2: hits p = 0 during step 2 (t in [2, 3]).
  const SymbolicSet initial{{Box{Interval{5.0, 6.0}, Interval{2.0, 2.0}}, 0}};
  const auto result = reach_analyze(system, initial, error, target, base_config(10));
  EXPECT_EQ(result.outcome, ReachOutcome::kErrorReachable);
  EXPECT_EQ(result.offending_step, 2);
  ASSERT_TRUE(result.offending.has_value());
  EXPECT_EQ(result.offending->command, 0u);
}

TEST(Reachability, ProvesSafeWithTermination) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);  // always coast
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  // v = -1: the vehicle moves away; terminate once p >= 10.
  const BoxRegion target({{0, Interval{10.0, 1e9}}});
  const SymbolicSet initial{{Box{Interval{5.0, 6.0}, Interval{-1.0, -1.0}}, 0}};
  const auto result = reach_analyze(system, initial, error, target, base_config(10));
  EXPECT_EQ(result.outcome, ReachOutcome::kProvedSafe);
  // Termination needs p in [10, ...]: from [5,6] at 1/s that is 5 steps.
  EXPECT_LE(result.stats.steps_executed, 6);
}

TEST(Reachability, HorizonExhaustedWithoutTarget) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  const SymbolicSet initial{{Box{Interval{100.0, 101.0}, Interval{1.0, 1.0}}, 0}};
  const auto result = reach_analyze(system, initial, error, target, recording_config(5));
  EXPECT_EQ(result.outcome, ReachOutcome::kHorizonExhausted);
  EXPECT_EQ(result.stats.steps_executed, 5);
  // Sampled sets recorded for steps 0..5.
  EXPECT_EQ(result.sampled_sets.size(), 6u);
}

TEST(Reachability, BranchesOnDecisionBoundary) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(50.0, -2.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  // The box straddles the threshold p = 50 -> both commands reachable.
  const SymbolicSet initial{{Box{Interval{49.0, 51.0}, Interval{0.0, 0.0}}, 0}};
  const auto result = reach_analyze(system, initial, error, target, recording_config(2));
  ASSERT_GE(result.sampled_sets.size(), 2u);
  EXPECT_EQ(result.sampled_sets[1].size(), 2u);  // branched into coast + brake
}

TEST(Reachability, GammaBoundsSampledSets) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(50.0, -2.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -1000.0}}});
  const EmptyRegion target;
  ReachConfig config = recording_config(6);
  config.gamma = 2;
  // Many initial states near the boundary create joins.
  SymbolicSet initial;
  for (int i = 0; i < 6; ++i) {
    initial.push_back({Box{Interval{48.0 + i, 48.5 + i}, Interval{0.0, 0.1}}, 0});
  }
  const auto result = reach_analyze(system, initial, error, target, config);
  EXPECT_GT(result.stats.joins, 0u);
  ASSERT_GE(result.sampled_sets.size(), 2u);
  // Resize runs at the top of each loop iteration, so every *propagated*
  // set respects Γ; the final set (recorded after the last step, before any
  // further resize — exactly as in Algorithm 3) may exceed it.
  for (std::size_t j = 0; j + 1 < result.sampled_sets.size(); ++j) {
    EXPECT_LE(result.sampled_sets[j].size(), 2u);
  }
}

TEST(Reachability, RecordsFlowpipesWhenAsked) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -1000.0}}});
  const EmptyRegion target;
  const SymbolicSet initial{{Box{Interval{10.0, 11.0}, Interval{1.0, 1.0}}, 0}};
  // Off (the production default), a run records neither field.
  const auto plain = reach_analyze(system, initial, error, target, base_config(3));
  EXPECT_EQ(plain.outcome, ReachOutcome::kHorizonExhausted);
  EXPECT_TRUE(plain.sampled_sets.empty());
  EXPECT_TRUE(plain.flowpipes.empty());

  const auto result = reach_analyze(system, initial, error, target, recording_config(3));
  EXPECT_EQ(result.outcome, plain.outcome);
  EXPECT_EQ(result.sampled_sets.size(), 4u);
  ASSERT_EQ(result.flowpipes.size(), 3u);
  ASSERT_EQ(result.flowpipes[0].size(), 1u);
  EXPECT_EQ(result.flowpipes[0][0].segments.size(), 4u);
}

TEST(Reachability, DiscreteInstantBaselineMissesIntraPeriodViolation) {
  // Oscillator with a full revolution per control period: at every sampling
  // instant the state is back at (1, 0), but mid-period it passes through
  // p = -1. The sound analysis flags the error; the [7]-style baseline,
  // which checks only t = jT, wrongly reports no error.
  const double omega = 2.0 * std::numbers::pi;
  const auto plant = oscillator_plant(omega);
  const auto ctrl = threshold_controller(-1e9, 0.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -0.5}}});
  const EmptyRegion target;

  ReachConfig sound = base_config(2);
  sound.integration_steps = 32;
  // A full revolution per period needs a high-order integrator to keep the
  // sampled-instant enclosures tight (local error (ω·h)^{K+1} is amplified
  // e^{ωT} by the wrapping effect).
  const TaylorIntegrator::Config high_order{8, {}};
  const TaylorIntegrator integrator(high_order);
  sound.integrator = &integrator;
  const SymbolicSet initial{{Box{Interval{1.0, 1.0}, Interval{0.0, 0.0}}, 0}};
  const auto sound_result = reach_analyze(system, initial, error, target, sound);
  EXPECT_EQ(sound_result.outcome, ReachOutcome::kErrorReachable);

  ReachConfig unsound = sound;
  unsound.check_intermediate = false;
  const auto unsound_result = reach_analyze(system, initial, error, target, unsound);
  EXPECT_EQ(unsound_result.outcome, ReachOutcome::kHorizonExhausted);
}

TEST(Reachability, DiscreteInstantBaselineStillSeesSampledViolations) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(-1e9, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  ReachConfig config = base_config(10);
  config.check_intermediate = false;
  const SymbolicSet initial{{Box{Interval{5.0, 6.0}, Interval{2.0, 2.0}}, 0}};
  const auto result = reach_analyze(system, initial, error, target, config);
  EXPECT_EQ(result.outcome, ReachOutcome::kErrorReachable);
}

TEST(Reachability, ValidatesConfiguration) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(0.0, -8.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, 0.0}}});
  const EmptyRegion target;
  const SymbolicSet initial{{Box{Interval{5.0, 6.0}, Interval{2.0, 2.0}}, 0}};

  ReachConfig config;  // integrator not set
  config.control_steps = 5;
  EXPECT_THROW(reach_analyze(system, initial, error, target, config), std::invalid_argument);

  config = base_config(0);
  EXPECT_THROW(reach_analyze(system, initial, error, target, config), std::invalid_argument);

  EXPECT_THROW(reach_analyze(system, SymbolicSet{}, error, target, base_config(5)),
               std::invalid_argument);

  // wrong box dimension
  EXPECT_THROW(reach_analyze(system, SymbolicSet{{Box{Interval{0.0, 1.0}}, 0}}, error, target,
                             base_config(5)),
               std::invalid_argument);
  // bad command index
  EXPECT_THROW(
      reach_analyze(system, SymbolicSet{{Box(2, Interval{0.0, 1.0}), 9}}, error, target,
                    base_config(5)),
      std::invalid_argument);

  const ClosedLoop broken{nullptr, ctrl.get(), 1.0};
  EXPECT_THROW(reach_analyze(broken, initial, error, target, base_config(5)),
               std::invalid_argument);
}

TEST(Reachability, OutcomeToString) {
  EXPECT_STREQ(to_string(ReachOutcome::kProvedSafe), "proved-safe");
  EXPECT_STREQ(to_string(ReachOutcome::kErrorReachable), "error-reachable");
  EXPECT_STREQ(to_string(ReachOutcome::kHorizonExhausted), "horizon-exhausted");
  EXPECT_STREQ(to_string(ReachOutcome::kEnclosureFailure), "enclosure-failure");
}

TEST(Reachability, DomainAxisParsesThreeValues) {
  // One value sets both the loop domain and the box queries' NN domain.
  const auto interval = parse_domain("interval");
  ASSERT_TRUE(interval.has_value());
  EXPECT_EQ(interval->loop, LoopDomain::kBox);
  EXPECT_EQ(interval->nn, NnDomain::kInterval);
  const auto symbolic = parse_domain("symbolic");
  ASSERT_TRUE(symbolic.has_value());
  EXPECT_EQ(symbolic->loop, LoopDomain::kBox);
  EXPECT_EQ(symbolic->nn, NnDomain::kSymbolic);
  const auto zonotope = parse_domain("zonotope");
  ASSERT_TRUE(zonotope.has_value());
  EXPECT_EQ(zonotope->loop, LoopDomain::kZonotope);
  for (const char* name : {"interval", "symbolic", "zonotope"}) {
    EXPECT_STREQ(to_string(*parse_domain(name)), name);
  }
  // The retired values of the two-axis flag are unknown like any other.
  for (const char* name : {"affine", "box", "", "Symbolic"}) {
    EXPECT_FALSE(parse_domain(name).has_value()) << name;
  }
}

// ---------------------------------------------------------------------------
// Soundness property (the essence of Theorem 1): every concrete closed-loop
// trajectory sampled from the initial cell is covered, at each sampling
// instant, by some symbolic state of R̃_j with the matching command.
// ---------------------------------------------------------------------------

class ReachabilitySoundness : public ::testing::TestWithParam<NnDomain> {};

TEST_P(ReachabilitySoundness, SampledTrajectoriesCoveredAtSampleInstants) {
  const auto plant = braking_plant();
  const auto ctrl = threshold_controller(50.0, -2.0, GetParam());
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -1e8}}});  // effectively no error
  const EmptyRegion target;

  const Box cell{Interval{48.0, 52.0}, Interval{-0.5, 0.5}};
  const int q = 8;
  const auto result =
      reach_analyze(system, SymbolicSet{{cell, 0}}, error, target, recording_config(q));
  ASSERT_EQ(result.outcome, ReachOutcome::kHorizonExhausted);
  ASSERT_EQ(result.sampled_sets.size(), static_cast<std::size_t>(q) + 1);

  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Vec s{rng.uniform(cell[0].lo(), cell[0].hi()), rng.uniform(cell[1].lo(), cell[1].hi())};
    std::size_t cmd = 0;
    for (int j = 0; j <= q; ++j) {
      bool covered = false;
      for (const auto& sym : result.sampled_sets[j]) {
        if (sym.command == cmd && sym.box().contains(s)) {
          covered = true;
          break;
        }
      }
      ASSERT_TRUE(covered) << "trajectory escaped R_" << j;
      if (j == q) {
        break;
      }
      const std::size_t next_cmd = ctrl->step(s, cmd);
      s = rk4_integrate(*plant, s, ctrl->commands()[cmd], 1.0, 64);
      cmd = next_cmd;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, ReachabilitySoundness,
                         ::testing::Values(NnDomain::kInterval, NnDomain::kSymbolic),
                         [](const auto& info) {
                           return info.param == NnDomain::kInterval ? "interval" : "symbolic";
                         });

// ---------------------------------------------------------------------------
// Loop domain (box vs zonotope): the same soundness law must hold when the
// relational abstraction is threaded through the loop, and on rotational
// dynamics the zonotope path must actually be tighter than boxing.
// ---------------------------------------------------------------------------

/// Harmonic oscillator with its exact linear part declared (zero residual),
/// so the affine integrator path engages instead of the boxed fallback.
std::unique_ptr<Dynamics> rotation_plant() {
  LinearPart lp{{0.0, 1.0, -1.0, 0.0}, {0.0, 0.0}};
  lp.residual = [](std::span<const Interval>, std::span<Interval> out) {
    out[0] = Interval{};
    out[1] = Interval{};
  };
  return make_dynamics(2, 1, testing_fixtures::OscField{1.0}, lp);
}

TEST(ReachabilityLoopDomain, ZonotopeSoundAtSampleInstants) {
  const auto plant = rotation_plant();
  const auto ctrl = threshold_controller(-1e9, 0.0);  // always coast (u = 0)
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -1e8}}});  // effectively no error
  const EmptyRegion target;
  const Box cell{Interval{0.9, 1.1}, Interval{-0.1, 0.1}};
  const int q = 6;
  ReachConfig config = recording_config(q);
  config.domain = LoopDomain::kZonotope;
  const auto result =
      reach_analyze(system, SymbolicSet{{cell, 0}}, error, target, config);
  ASSERT_EQ(result.outcome, ReachOutcome::kHorizonExhausted);
  ASSERT_EQ(result.sampled_sets.size(), static_cast<std::size_t>(q) + 1);

  Rng rng(113);
  for (int trial = 0; trial < 40; ++trial) {
    Vec s{rng.uniform(cell[0].lo(), cell[0].hi()), rng.uniform(cell[1].lo(), cell[1].hi())};
    std::size_t cmd = 0;
    for (int j = 0; j <= q; ++j) {
      bool covered = false;
      for (const auto& sym : result.sampled_sets[j]) {
        if (sym.command == cmd && sym.box().contains(s)) {
          // A carried relational refinement must agree with its own box.
          if (sym.abstract.has_relational()) {
            EXPECT_TRUE(sym.box().contains(sym.abstract.relational()->concretize()));
          }
          covered = true;
          break;
        }
      }
      ASSERT_TRUE(covered) << "trajectory escaped R_" << j;
      if (j == q) {
        break;
      }
      const std::size_t next_cmd = ctrl->step(s, cmd);
      s = rk4_integrate(*plant, s, ctrl->commands()[cmd], 1.0, 64);
      cmd = next_cmd;
    }
  }
}

TEST(ReachabilityLoopDomain, ZonotopeTighterThanBoxOnRotation) {
  const auto plant = rotation_plant();
  const auto ctrl = threshold_controller(-1e9, 0.0);
  const ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  const BoxRegion error({{0, Interval{-1e9, -1e8}}});
  const EmptyRegion target;
  const Box cell{Interval{0.9, 1.1}, Interval{-0.1, 0.1}};
  const int q = 6;

  ReachConfig box_config = recording_config(q);
  box_config.domain = LoopDomain::kBox;
  ReachConfig zono_config = recording_config(q);
  zono_config.domain = LoopDomain::kZonotope;
  const auto boxed = reach_analyze(system, SymbolicSet{{cell, 0}}, error, target, box_config);
  const auto zono = reach_analyze(system, SymbolicSet{{cell, 0}}, error, target, zono_config);
  ASSERT_EQ(boxed.outcome, ReachOutcome::kHorizonExhausted);
  ASSERT_EQ(zono.outcome, ReachOutcome::kHorizonExhausted);

  // Compare the final sampled sets' hulls: the oscillator only rotates, so
  // the zonotope stays at the initial widths (~0.2) while the boxed loop
  // wraps at every sub-step and blows up by a large factor over 6 periods.
  const auto hull_width = [](const SymbolicSet& set, std::size_t dim) {
    Interval hull = set.front().box()[dim];
    for (const auto& sym : set) {
      hull = nncs::hull(hull, sym.box()[dim]);
    }
    return hull.width();
  };
  for (std::size_t dim = 0; dim < 2; ++dim) {
    const double bw = hull_width(boxed.sampled_sets.back(), dim);
    const double zw = hull_width(zono.sampled_sets.back(), dim);
    EXPECT_LT(zw, 0.3) << "dim " << dim;
    EXPECT_GT(bw, 2.0 * zw) << "dim " << dim;
  }
}


}  // namespace
}  // namespace nncs
