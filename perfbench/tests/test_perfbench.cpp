/// Tests of the benchmark itself: the decorators forward every virtual
/// function (a missed override would fall back to a base default that
/// boxes sets or loops scalar steps, and measure a different program), and
/// the seed-to-root-cells mapping is a deterministic function of the seed.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "checks.hpp"
#include "decorators.hpp"
#include "obs/metrics.hpp"
#include "workload.hpp"

namespace {

/// Small instances: the first few root cells of each workload.
constexpr std::size_t kSmallCells = 6;

class PerWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] const perfbench::WorkloadSpec& spec() const {
    const perfbench::WorkloadSpec* w = perfbench::find_workload(GetParam());
    if (w == nullptr) {
      throw std::invalid_argument("unknown workload " + GetParam());
    }
    return *w;
  }
};

std::string run_digest(perfbench::Setup& setup, const nncs::ClosedLoop& loop,
                       const nncs::StateRegion& error, const nncs::StateRegion& target,
                       const nncs::EngineConfig& config) {
  setup.system.controller->configure_cache(setup.engine.verify.reach.nn_cache);
  const nncs::EngineResult result =
      nncs::VerificationEngine(loop, error, target).run(setup.cells, config);
  EXPECT_TRUE(result.complete());
  return perfbench::verdict_digest(result.report);
}

TEST_P(PerWorkload, DecoratedRunMatchesUndecoratedDigest) {
  perfbench::Setup setup = perfbench::assemble(spec(), 11, PERFBENCH_NETS_DIR);
  setup.cells.resize(std::min(setup.cells.size(), kSmallCells));
  const std::string plain =
      run_digest(setup, setup.system.loop, *setup.error, *setup.target, setup.engine);

  const perfbench::TimedIntegrator integrator(*setup.integrator);
  const perfbench::TimedController controller(*setup.system.controller);
  const perfbench::TimedRegion error(*setup.error);
  const perfbench::TimedRegion target(*setup.target);
  const nncs::ClosedLoop loop{setup.system.loop.plant, &controller, setup.system.loop.period};
  nncs::EngineConfig config = setup.engine;
  config.verify.reach.integrator = &integrator;
  nncs::obs::Registry::instance().reset();
  nncs::obs::set_enabled(true);
  const std::string decorated = run_digest(setup, loop, error, target, config);
  nncs::obs::set_enabled(false);
  EXPECT_EQ(plain, decorated);

  // The loop reached the same entry points through the decorators as it
  // does undecorated: a base default would show up as calls to another
  // entry point (the batch default loops `step_abstract`, the affine
  // default calls `step`).
  const nncs::obs::MetricsSnapshot snapshot = nncs::obs::Registry::instance().snapshot();
  const auto calls = [&](std::string_view span) {
    const auto* h = snapshot.histogram(span);
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const bool zonotope = spec().domain == nncs::LoopDomain::kZonotope;
  EXPECT_GT(calls(zonotope ? "bench.ode.step_affine" : "bench.ode.step"), 0U);
  EXPECT_EQ(calls(zonotope ? "bench.ode.step" : "bench.ode.step_affine"), 0U);
  EXPECT_GT(calls("bench.controller.step_abstract_batch"), 0U);
  EXPECT_EQ(calls("bench.controller.step_abstract"), 0U);
  EXPECT_EQ(calls("bench.controller.step_abstract_relational"), 0U);
  EXPECT_GT(calls("bench.specs.possibly_intersects"), 0U);
}

/// The overridable defaults, called directly: each decorator must return
/// exactly what the wrapped object returns, not what the base default
/// (which boxes the affine set first) would.
TEST(Decorators, ForwardTheRelationalEntryPoints) {
  perfbench::Setup setup = perfbench::assemble(*perfbench::find_workload("pendulum_zonotope"),
                                                11, PERFBENCH_NETS_DIR);
  const nncs::SymbolicState& cell = setup.cells.front();
  // A rotated box: a correlated set whose hull is wider than the set.
  nncs::IntervalMatrix rotate(2, 2);
  rotate.at(0, 0) = nncs::Interval{0.8};
  rotate.at(0, 1) = nncs::Interval{-0.6};
  rotate.at(1, 0) = nncs::Interval{0.6};
  rotate.at(1, 1) = nncs::Interval{0.8};
  const auto set = std::make_shared<const nncs::AffineSet>(
      nncs::AffineSet::from_box(cell.box()).linear_image(rotate));

  const nncs::Controller& inner = *setup.system.controller;
  const perfbench::TimedController controller(inner);
  const auto relational = controller.step_abstract_relational(*set, cell.command);
  EXPECT_EQ(relational.commands, inner.step_abstract_relational(*set, cell.command).commands);
  EXPECT_EQ(relational.network_output,
            inner.step_abstract_relational(*set, cell.command).network_output);
  const std::vector<nncs::AbstractState> states{nncs::AbstractState{set->concretize(), set},
                                                cell.abstract};
  const std::vector<std::size_t> previous{cell.command, cell.command};
  const auto batch = controller.step_abstract_batch(states, previous);
  const auto expected = inner.step_abstract_batch(states, previous);
  ASSERT_EQ(batch.size(), expected.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].commands, expected[i].commands);
    EXPECT_EQ(batch[i].network_output, expected[i].network_output);
  }

  const nncs::ValidatedIntegrator& taylor = *setup.integrator;
  const perfbench::TimedIntegrator integrator(taylor);
  const nncs::Vec& u = inner.commands()[cell.command];
  const auto step = integrator.step_affine(*setup.system.plant, *set, u, 0.05);
  const auto reference = taylor.step_affine(*setup.system.plant, *set, u, 0.05);
  ASSERT_TRUE(step.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(step->end_box, reference->end_box);
  EXPECT_EQ(step->flow, reference->flow);
}

TEST_P(PerWorkload, SameSeedGivesSameCellsAndOtherSeedsDiffer) {
  const nncs::scenario::Scenario& scenario =
      nncs::scenario::Registry::global().at(spec().scenario);
  const auto a = perfbench::root_cells(scenario, spec(), 7);
  const auto b = perfbench::root_cells(scenario, spec(), 7);
  const auto c = perfbench::root_cells(scenario, spec(), 8);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box(), b[i].box());
    EXPECT_EQ(a[i].command, b[i].command);
    differs = differs || !(a[i].box() == c[i].box());
  }
  EXPECT_TRUE(differs);
}

TEST_P(PerWorkload, CellsLieInsideTheDefaultInitialSet) {
  const nncs::scenario::Scenario& scenario =
      nncs::scenario::Registry::global().at(spec().scenario);
  const auto defaults = scenario.make_cells(scenario.default_partition());
  nncs::Box hull = defaults.front().state.box();
  for (const auto& cell : defaults) {
    hull = nncs::hull(hull, cell.state.box());
  }
  for (const auto& cell : perfbench::root_cells(scenario, spec(), 3)) {
    EXPECT_TRUE(hull.contains(cell.box())) << cell.box().str();
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::Values("acasxu_box", "acasxu_zonotope", "cruise_box",
                                           "pendulum_zonotope"));

TEST(Workloads, StratifiedDrawsAreDistinctCells) {
  for (const perfbench::WorkloadSpec& w : perfbench::workloads()) {
    if (w.per_block == 0) {
      continue;
    }
    const nncs::scenario::Scenario& scenario =
        nncs::scenario::Registry::global().at(w.scenario);
    const auto cells = perfbench::root_cells(scenario, w, 5);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      EXPECT_FALSE(cells[i].box() == cells[i - 1].box()) << w.name << " cell " << i;
    }
  }
}

}  // namespace
