// Tests for partition-and-refine verification (plain runs of the
// verification engine) and the paper's coverage metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "closed_loop_fixtures.hpp"
#include "core/engine.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::threshold_controller;

const TaylorIntegrator kIntegrator;

TEST(Coverage, PaperFormula) {
  // c = 100/K0 * sum_d n_d / f^d
  EXPECT_DOUBLE_EQ(coverage_percent(10, {10}, 8), 100.0);
  EXPECT_DOUBLE_EQ(coverage_percent(10, {5}, 8), 50.0);
  // one cell proved at depth 1 out of 1 root with split factor 8 counts 1/8.
  EXPECT_DOUBLE_EQ(coverage_percent(1, {0, 1}, 8), 100.0 / 8.0);
  // paper-style mix: K0=100, 80 at depth 0, 96 at depth 1, 128 at depth 2.
  EXPECT_NEAR(coverage_percent(100, {80, 96, 128}, 8), 80.0 + 12.0 + 2.0, 1e-9);
  EXPECT_EQ(coverage_percent(0, {1}, 8), 0.0);
}

/// A verification setup where safety depends on the initial distance: the
/// always-coast vehicle moving away (v < 0) terminates at p >= 20; vehicles
/// with v > 0 eventually collide.
struct BrakeSetup {
  std::unique_ptr<Dynamics> plant = braking_plant();
  std::unique_ptr<NeuralController> ctrl = threshold_controller(-1e9, -8.0);
  ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  BoxRegion error{{{0, Interval{-1e9, 0.0}}}};
  BoxRegion target{{{0, Interval{20.0, 1e9}}}};

  VerifyConfig config() const {
    VerifyConfig vc;
    vc.reach.control_steps = 30;
    vc.reach.integration_steps = 2;
    vc.reach.gamma = 4;
    vc.reach.integrator = &kIntegrator;
    vc.max_refinement_depth = 2;
    vc.split_dims = {1};
    vc.threads = 2;
    return vc;
  }

  VerificationEngine engine() const { return VerificationEngine(system, error, target); }
};

TEST(Verifier, AllSafeCellsProveAtDepthZero) {
  BrakeSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 4; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-2.0, -1.0}}, 0});
  }
  const auto report = s.engine().run(cells, EngineConfig{s.config()}).report;
  EXPECT_EQ(report.root_cells, 4u);
  EXPECT_EQ(report.proved_leaves, 4u);
  EXPECT_EQ(report.failed_leaves, 0u);
  EXPECT_DOUBLE_EQ(report.coverage_percent, 100.0);
  EXPECT_EQ(report.proved_by_depth[0], 4u);
}

TEST(Verifier, UnsafeCellsFailAtMaxDepth) {
  BrakeSetup s;
  // v > 0: collision certain; refinement cannot help.
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{1.0, 2.0}}, 0}};
  const auto report = s.engine().run(cells, EngineConfig{s.config()}).report;
  EXPECT_EQ(report.proved_leaves, 0u);
  // depth 2 with one split dim: 4 leaves.
  EXPECT_EQ(report.failed_leaves, 4u);
  EXPECT_DOUBLE_EQ(report.coverage_percent, 0.0);
  for (const auto& leaf : report.leaves) {
    EXPECT_EQ(leaf.depth, 2);
    EXPECT_EQ(leaf.outcome, ReachOutcome::kErrorReachable);
  }
}

TEST(Verifier, RefinementRecoversPartialCoverage) {
  BrakeSetup s;
  // v in [-2, 2]: mixed cell; splitting on v separates safe from unsafe.
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{-2.0, 2.0}}, 0}};
  const auto report = s.engine().run(cells, EngineConfig{s.config()}).report;
  EXPECT_GT(report.proved_leaves, 0u);
  EXPECT_GT(report.failed_leaves, 0u);
  EXPECT_GT(report.coverage_percent, 0.0);
  EXPECT_LT(report.coverage_percent, 100.0);
  // Proofs only appear below depth 0 for this mixed cell.
  EXPECT_EQ(report.proved_by_depth[0], 0u);
  // Root index is preserved through refinement.
  for (const auto& leaf : report.leaves) {
    EXPECT_EQ(leaf.root_index, 0u);
  }
}

TEST(Verifier, DepthZeroConfigDoesNotRefine) {
  BrakeSetup s;
  VerifyConfig vc = s.config();
  vc.max_refinement_depth = 0;
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{-2.0, 2.0}}, 0}};
  const auto report = s.engine().run(cells, EngineConfig{vc}).report;
  EXPECT_EQ(report.leaves.size(), 1u);
  EXPECT_EQ(report.failed_leaves, 1u);
}

TEST(Verifier, ThreadCountDoesNotChangeResults) {
  BrakeSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back({Box{Interval{4.0 + i, 5.0 + i}, Interval{-2.0, 2.0}}, 0});
  }
  VerifyConfig one = s.config();
  one.threads = 1;
  VerifyConfig four = s.config();
  four.threads = 4;
  const auto a = s.engine().run(cells, EngineConfig{one}).report;
  const auto b = s.engine().run(cells, EngineConfig{four}).report;
  EXPECT_EQ(a.proved_leaves, b.proved_leaves);
  EXPECT_EQ(a.failed_leaves, b.failed_leaves);
  EXPECT_DOUBLE_EQ(a.coverage_percent, b.coverage_percent);
  EXPECT_EQ(a.proved_by_depth, b.proved_by_depth);
}

TEST(Verifier, BookkeepingIsConsistent) {
  BrakeSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-1.0, 1.0}}, 0});
  }
  const auto report = s.engine().run(cells, EngineConfig{s.config()}).report;
  EXPECT_EQ(report.proved_leaves + report.failed_leaves, report.leaves.size());
  std::size_t proved_sum = 0;
  for (const auto n : report.proved_by_depth) {
    proved_sum += n;
  }
  EXPECT_EQ(proved_sum, report.proved_leaves);
}

TEST(Verifier, AggregateStatsSumsLeaves) {
  BrakeSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-1.0, 1.0}}, 0});
  }
  const auto report = s.engine().run(cells, EngineConfig{s.config()}).report;
  const ReachStats agg = aggregate_stats(report);

  // Aggregate = refined-away interior cells + terminal leaves.
  int steps = report.interior_stats.steps_executed;
  std::size_t joins = report.interior_stats.joins;
  std::size_t max_states = report.interior_stats.max_states;
  std::size_t sims = report.interior_stats.total_simulations;
  double seconds = report.interior_stats.seconds;
  double phase_total = report.interior_stats.phases.total();
  for (const auto& leaf : report.leaves) {
    steps += leaf.stats.steps_executed;
    joins += leaf.stats.joins;
    max_states = std::max(max_states, leaf.stats.max_states);
    sims += leaf.stats.total_simulations;
    seconds += leaf.stats.seconds;
    phase_total += leaf.stats.phases.total();
  }
  EXPECT_EQ(agg.steps_executed, steps);
  EXPECT_EQ(agg.joins, joins);
  EXPECT_EQ(agg.max_states, max_states);
  EXPECT_EQ(agg.total_simulations, sims);
  EXPECT_DOUBLE_EQ(agg.seconds, seconds);
  EXPECT_DOUBLE_EQ(agg.phases.total(), phase_total);

  // Mixed cells refine, so the refined-away interior cells did real work
  // that leaves alone would under-count.
  EXPECT_GT(report.interior_stats.total_simulations, 0u);

  // The run did real work, and the phase tiling never exceeds the per-cell
  // wall time it decomposes.
  EXPECT_GT(agg.steps_executed, 0);
  EXPECT_GT(agg.total_simulations, 0u);
  EXPECT_GE(agg.phases.simulate_seconds, 0.0);
  EXPECT_GE(agg.phases.controller_seconds, 0.0);
  EXPECT_GE(agg.phases.join_seconds, 0.0);
  EXPECT_GE(agg.phases.check_seconds, 0.0);
  EXPECT_LE(agg.phases.total(), agg.seconds * 1.5 + 0.1);
}

TEST(Verifier, AggregateStatsOfEmptyReportIsZero) {
  const ReachStats agg = aggregate_stats(VerifyReport{});
  EXPECT_EQ(agg.steps_executed, 0);
  EXPECT_EQ(agg.joins, 0u);
  EXPECT_EQ(agg.total_simulations, 0u);
  EXPECT_DOUBLE_EQ(agg.seconds, 0.0);
  EXPECT_DOUBLE_EQ(agg.phases.total(), 0.0);
}

TEST(Verifier, WidestDimStrategyBisectsOneDimensionPerLevel) {
  BrakeSetup s;
  VerifyConfig vc = s.config();
  vc.split_strategy = SplitStrategy::kWidestDim;
  vc.split_dims = {1, 0};  // round-robin starts with v
  vc.max_refinement_depth = 3;
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{-2.0, 2.0}}, 0}};
  const auto report = s.engine().run(cells, EngineConfig{vc}).report;
  // Every refinement level halves exactly one dimension: a depth-d leaf has
  // total halvings a + b = d with widths root/2^a x root/2^b.
  for (const auto& leaf : report.leaves) {
    const double a = std::log2(cells[0].box()[0].width() / leaf.initial.box()[0].width());
    const double b = std::log2(cells[0].box()[1].width() / leaf.initial.box()[1].width());
    EXPECT_NEAR(a + b, leaf.depth, 1e-9);
    EXPECT_GE(a, -1e-9);
    EXPECT_GE(b, -1e-9);
  }
  // Receding-v sub-cells become provable once v is halved twice.
  EXPECT_GT(report.coverage_percent, 0.0);
  EXPECT_LT(report.coverage_percent, 100.0);
}

TEST(Verifier, WidestDimMatchesAllDimsCoverageAtHigherDepth) {
  BrakeSetup s;
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{-2.0, 2.0}}, 0}};
  VerifyConfig all = s.config();
  all.split_dims = {1};
  all.max_refinement_depth = 2;
  VerifyConfig widest = s.config();
  widest.split_dims = {1};
  widest.split_strategy = SplitStrategy::kWidestDim;
  widest.max_refinement_depth = 2;
  // With a single split dim, both strategies do the same thing.
  const auto a = s.engine().run(cells, EngineConfig{all}).report;
  const auto b = s.engine().run(cells, EngineConfig{widest}).report;
  EXPECT_DOUBLE_EQ(a.coverage_percent, b.coverage_percent);
  EXPECT_EQ(a.leaves.size(), b.leaves.size());
}

TEST(Verifier, ValidatesArguments) {
  BrakeSetup s;
  EXPECT_THROW(s.engine().run(SymbolicSet{}, EngineConfig{s.config()}), std::invalid_argument);
  VerifyConfig bad = s.config();
  bad.max_refinement_depth = -1;
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{0.0, 1.0}}, 0}};
  EXPECT_THROW(s.engine().run(cells, EngineConfig{bad}), std::invalid_argument);
}

}  // namespace
}  // namespace nncs
