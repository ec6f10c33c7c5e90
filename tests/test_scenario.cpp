// Tests for the scenario layer (src/scenario/): registry semantics,
// deterministic partitions, fingerprint/checkpoint stamping, and one cheap
// end-to-end verification per registered scenario (the SmokeSpec contract —
// adding a scenario means declaring what "working" looks like here).

#include <gtest/gtest.h>

#include <filesystem>
#include <numbers>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "obs/provenance.hpp"
#include "scenario/scenario.hpp"
#include "scenario/unicycle.hpp"
#include "util/rng.hpp"

namespace nncs::scenario {
namespace {

// ---------------------------------------------------------------- registry

TEST(ScenarioRegistry, GlobalHasBuiltins) {
  const Registry& registry = Registry::global();
  EXPECT_GE(registry.size(), 4u);
  EXPECT_NE(registry.find("acasxu"), nullptr);
  EXPECT_NE(registry.find("cruise_control"), nullptr);
  EXPECT_NE(registry.find("pendulum"), nullptr);
  EXPECT_NE(registry.find("unicycle"), nullptr);
}

TEST(ScenarioRegistry, AllIsSortedByName) {
  const auto all = Registry::global().all();
  ASSERT_GE(all.size(), 3u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());
  }
}

TEST(ScenarioRegistry, LookupByName) {
  const Registry& registry = Registry::global();
  EXPECT_EQ(registry.at("acasxu").name(), "acasxu");
  EXPECT_EQ(registry.find("acasxu")->name(), "acasxu");
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, UnknownNameThrowsListingRegistered) {
  try {
    (void)Registry::global().at("no_such_scenario");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_scenario"), std::string::npos);
    // The error lists the registered names so the CLI message is actionable.
    EXPECT_NE(what.find("acasxu"), std::string::npos);
    EXPECT_NE(what.find("unicycle"), std::string::npos);
  }
}

TEST(ScenarioRegistry, DuplicateAddThrows) {
  Registry registry;
  registry.add(make_unicycle_scenario());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.add(make_unicycle_scenario()), std::invalid_argument);
}

// ------------------------------------------------------- metadata contract

TEST(ScenarioContract, MetadataIsWellFormed) {
  for (const Scenario* scen : Registry::global().all()) {
    const Scenario& s = *scen;
    SCOPED_TRACE(s.name());
    EXPECT_FALSE(s.name().empty());
    EXPECT_EQ(s.name().find(','), std::string::npos);
    EXPECT_EQ(s.name().find(' '), std::string::npos);
    EXPECT_FALSE(s.description().empty());
    EXPECT_FALSE(s.version().empty());
    for (const auto& [key, value] : s.parameters()) {
      EXPECT_FALSE(key.empty());
      // Comma-free so parameters embed in fingerprints and CSV headers.
      EXPECT_EQ(key.find(','), std::string::npos) << key;
      EXPECT_EQ(value.find(','), std::string::npos) << key << "=" << value;
      EXPECT_EQ(value.find('\n'), std::string::npos) << key;
    }
    const Partition def = s.default_partition();
    EXPECT_GT(def.axis0, 0u);
    EXPECT_GT(def.axis1, 0u);
  }
}

TEST(ScenarioContract, ResolveFillsZeroAxesFromDefaults) {
  const Scenario& scen = Registry::global().at("unicycle");
  const Partition def = scen.default_partition();
  const Partition all_default = resolve(scen, Partition{});
  EXPECT_EQ(all_default.axis0, def.axis0);
  EXPECT_EQ(all_default.axis1, def.axis1);
  const Partition partial = resolve(scen, Partition{3, 0});
  EXPECT_EQ(partial.axis0, 3u);
  EXPECT_EQ(partial.axis1, def.axis1);
}

// ---------------------------------------------------------------- partitions

TEST(ScenarioCells, DeterministicAcrossCalls) {
  for (const Scenario* scen : Registry::global().all()) {
    const Scenario& s = *scen;
    SCOPED_TRACE(s.name());
    const auto a = s.make_cells(Partition{4, 3});
    const auto b = s.make_cells(Partition{4, 3});
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 4u * 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].state.box(), b[i].state.box());
      EXPECT_EQ(a[i].state.command, b[i].state.command);
      EXPECT_EQ(a[i].bin_lo, b[i].bin_lo);
      EXPECT_EQ(a[i].bin_hi, b[i].bin_hi);
      EXPECT_LT(a[i].bin_lo, a[i].bin_hi);
    }
  }
}

TEST(ScenarioCells, GridTilesTwoDimensionsAroundFixedValues) {
  const auto cells = grid_cells(Partition{2, 3}, {1, -1.0, 1.0}, {2, 0.0, 0.75},
                                Vec{5.0, 0.0, 0.0}, 4);
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      // Axis 0 varies slowest and is the bin axis.
      const Cell& cell = cells[i * 3 + j];
      const double lo0 = -1.0 + static_cast<double>(i) * 1.0;
      const double lo1 = static_cast<double>(j) * 0.25;
      EXPECT_EQ(cell.state.box(), (Box{Interval{5.0}, Interval{lo0, lo0 + 1.0},
                                       Interval{lo1, lo1 + 0.25}}));
      EXPECT_EQ(cell.state.command, 4u);
      EXPECT_EQ(cell.bin_lo, lo0);
      EXPECT_EQ(cell.bin_hi, lo0 + 1.0);
    }
  }
}

TEST(ScenarioCells, ToSymbolicSetStripsBinMetadata) {
  const auto cells = Registry::global().at("cruise_control").make_cells(Partition{5, 2});
  const SymbolicSet set = to_symbolic_set(cells);
  ASSERT_EQ(set.size(), cells.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].box(), cells[i].state.box());
    EXPECT_EQ(set[i].command, cells[i].state.command);
  }
}

// ------------------------------------------- acasxu: the Fig 8 partition

const Scenario& acas() { return Registry::global().at("acasxu"); }

TEST(Scenario, PartitionHasExpectedShape) {
  const auto cells = acas().make_cells(Partition{12, 5});
  EXPECT_EQ(cells.size(), 60u);
  EXPECT_EQ(cells.front().bin_lo, -std::numbers::pi);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.state.command, acasxu::kCoc);
    EXPECT_EQ(cell.state.box().dim(), acasxu::kStateDim);
    // Velocities are fixed.
    EXPECT_TRUE(cell.state.box()[acasxu::kIdxVown].is_degenerate());
    EXPECT_DOUBLE_EQ(cell.state.box()[acasxu::kIdxVown].lo(), acasxu::kVown);
    // Position boxes stay near the sensor circle.
    EXPECT_LE(cell.state.box()[acasxu::kIdxX].mag(), acasxu::kSensorRange * 1.001);
  }
  // Odd arc counts round up to even, so bearing 0 is an arc boundary.
  EXPECT_EQ(acas().make_cells(Partition{7, 3}).size(), 8u * 3u);
}

TEST(Scenario, CellsCoverTheSensorCircleRibbon) {
  // Soundness of the partition: every concrete initial state (on-circle
  // position + penetrating heading) generated by the sampler lies in some
  // cell with the same command, and that cell's bin holds its bearing.
  const auto cells = acas().make_cells(Partition{24, 8});
  const auto sampler = acasxu::make_sampler();
  Rng rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec params{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const auto [state, command] = sampler(params);
    const double bearing = -std::numbers::pi + 2.0 * std::numbers::pi * params[0];
    bool covered = false;
    for (const auto& cell : cells) {
      if (cell.state.command == command && cell.state.box().contains(state)) {
        EXPECT_LE(cell.bin_lo, bearing + 1e-12);
        EXPECT_GE(cell.bin_hi, bearing - 1e-12);
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << "initial state escaped the partition";
  }
}

TEST(Scenario, HeadingsStayWithinTrainedRange) {
  const acasxu::TrainingConfig training;
  for (const auto& cell : acas().make_cells(Partition{64, 8})) {
    EXPECT_GE(cell.state.box()[acasxu::kIdxPsi].lo(), -training.psi_range);
    EXPECT_LE(cell.state.box()[acasxu::kIdxPsi].hi(), training.psi_range);
  }
}

TEST(Scenario, ErrorAndTargetRegions) {
  const auto error = acas().make_error_region();
  const auto target = acas().make_target_region();
  EXPECT_TRUE(error->contains_point(Vec{100.0, 100.0, 0.0, 700.0, 600.0}, 0));
  EXPECT_FALSE(error->contains_point(Vec{600.0, 0.0, 0.0, 700.0, 600.0}, 0));
  EXPECT_TRUE(target->contains_point(Vec{8100.0, 0.0, 0.0, 700.0, 600.0}, 0));
  EXPECT_FALSE(target->contains_point(Vec{7900.0, 0.0, 0.0, 700.0, 600.0}, 0));
  // T and E must be disjoint (paper requirement T ∩ E = ∅).
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const Vec s{rng.uniform(-9000.0, 9000.0), rng.uniform(-9000.0, 9000.0), 0.0, 700.0,
                600.0};
    EXPECT_FALSE(error->contains_point(s, 0) && target->contains_point(s, 0));
  }
}

TEST(Scenario, SplitDimensionsArePositionAndHeading) {
  EXPECT_EQ(acas().default_config().split_dims,
            (std::vector<std::size_t>{acasxu::kIdxX, acasxu::kIdxY, acasxu::kIdxPsi}));
}

TEST(Scenario, ToSymbolicSetStripsMetadata) {
  const auto cells = acas().make_cells(Partition{4, 2});
  const auto set = to_symbolic_set(cells);
  ASSERT_EQ(set.size(), cells.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].box(), cells[i].state.box());
    EXPECT_EQ(set[i].command, cells[i].state.command);
  }
}

// -------------------------------------------------------------- fingerprint

TEST(ScenarioFingerprint, DeterministicAndCsvSafe) {
  for (const Scenario* scen : Registry::global().all()) {
    const Scenario& s = *scen;
    SCOPED_TRACE(s.name());
    const std::string fp = fingerprint(s, Partition{});
    EXPECT_EQ(fp, fingerprint(s, Partition{}));
    EXPECT_NE(fp.find(s.name()), std::string::npos);
    EXPECT_EQ(fp.find(','), std::string::npos);
    EXPECT_EQ(fp.find('\n'), std::string::npos);
  }
}

TEST(ScenarioFingerprint, BuiltinsArePinned) {
  // Checkpoints record the fingerprint and `--resume` refuses any other
  // (exit 4), so a changed parameter string strands every saved run. Change
  // these only together with the scenario's version().
  const std::pair<const char*, const char*> pinned[] = {
      {"acasxu",
       "acasxu;1;arcs=32;headings=8;sensor_range=8000;collision_radius=500;vown=700;"
       "vint=600;training=v3;hidden=32|32|32|;epochs=60;batch=64;lr=0.001;tseed=42;"
       "samples=30000;seed=7;rho=100:9500;psi=6;v=700:600;"
       "policy=12|0.25|500|4000|25|25|0.4|0.5|0.7|0.1"},
      {"cruise_control",
       "cruise_control;1;gap-cells=10;speed-cells=8;period=0.25;gap0=30:80;vr0=-6:2;"
       "gap_floor=2;training=v1;hidden=24|24;epochs=50;lr=0.002;seed=22;samples=12000;"
       "rngseed=21"},
      {"pendulum",
       "pendulum;1;theta-cells=8;omega-cells=8;period=0.1;g_over_l=5;damping=1;"
       "theta0=-0.3:0.3;omega0=-0.3:0.3;theta_fail=0.8;theta_settle=0.15;omega_settle=0.3;"
       "training=v4;hidden=16|16;epochs=40;lr=0.002;seed=7;samples=8000;rngseed=13;"
       "expert=2|2;torques=2|0;damping=1"},
      {"unicycle",
       "unicycle;1;offset-cells=8;heading-cells=8;period=0.25;speed=1;y0=-1:1;"
       "psi0=-0.7:0.7;corridor=3;training=v1;hidden=16|16;epochs=40;lr=0.002;seed=5;"
       "samples=10000;rngseed=11;steer=0.6|2"},
  };
  for (const auto& [name, expected] : pinned) {
    EXPECT_EQ(fingerprint(Registry::global().at(name), Partition{}), expected);
  }
}

TEST(ScenarioFingerprint, ChangesWithPartition) {
  const Scenario& scen = Registry::global().at("acasxu");
  EXPECT_NE(fingerprint(scen, Partition{8, 4}), fingerprint(scen, Partition{16, 4}));
  EXPECT_NE(fingerprint(scen, Partition{8, 4}), fingerprint(scen, Partition{8, 8}));
  // Zero axes resolve to the defaults, so {} and the explicit default agree.
  EXPECT_EQ(fingerprint(scen, Partition{}), fingerprint(scen, scen.default_partition()));
}

// ------------------------------------------------------ checkpoint stamping

TEST(ScenarioCheckpoint, StampedRoundTripIsV2) {
  EngineCheckpoint cp;
  cp.root_cells = 12;
  cp.scenario = "unicycle";
  cp.fingerprint = fingerprint(Registry::global().at("unicycle"), Partition{});
  std::stringstream buffer;
  save_checkpoint(cp, buffer);
  EXPECT_EQ(buffer.str().rfind("nncs-checkpoint v2,", 0), 0u);
  const EngineCheckpoint loaded = load_checkpoint(buffer);
  EXPECT_EQ(loaded.root_cells, 12u);
  EXPECT_EQ(loaded.scenario, cp.scenario);
  EXPECT_EQ(loaded.fingerprint, cp.fingerprint);
}

TEST(ScenarioCheckpoint, UnstampedRoundTripStaysV1) {
  EngineCheckpoint cp;
  cp.root_cells = 3;
  std::stringstream buffer;
  save_checkpoint(cp, buffer);
  EXPECT_EQ(buffer.str().rfind("nncs-checkpoint v1,", 0), 0u);
  const EngineCheckpoint loaded = load_checkpoint(buffer);
  EXPECT_TRUE(loaded.scenario.empty());
  EXPECT_TRUE(loaded.fingerprint.empty());
}

// ---------------------------------------------------------------- telemetry

TEST(ScenarioProvenance, SetScenarioFlowsIntoProvenance) {
  obs::set_scenario("test_scenario_name");
  EXPECT_EQ(obs::collect_provenance().scenario, "test_scenario_name");
  obs::set_scenario("");
  EXPECT_EQ(obs::collect_provenance().scenario, "");
}

// -------------------------------------------------------- end-to-end smoke

/// Run the scenario's own SmokeSpec through a plain engine run, reading the
/// trained networks from the repo's checked-in caches (tests run from the
/// build tree, where the scenarios' relative default paths don't resolve).
VerifyReport run_smoke(const Scenario& scen,
                       std::optional<LoopDomain> domain_override = std::nullopt) {
  SystemConfig sys_config;
  sys_config.nets_dir =
      std::filesystem::path(NNCS_SOURCE_DIR) / (scen.name() + "_nets_cache");
  const System system = scen.make_system(sys_config);
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const SmokeSpec spec = scen.smoke();
  const auto cells = scen.make_cells(spec.partition);

  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  VerifyConfig config = scen.default_config();
  config.reach.integrator = &integrator;
  if (spec.control_steps > 0) {
    config.reach.control_steps = spec.control_steps;
  }
  if (spec.max_refinement_depth >= 0) {
    config.max_refinement_depth = spec.max_refinement_depth;
  }
  if (domain_override) {
    config.reach.domain = *domain_override;
  }
  config.threads = 4;

  const VerificationEngine engine(system.loop, *error, *target);
  return engine.run(to_symbolic_set(cells), EngineConfig{config}).report;
}

void expect_smoke_holds(const Scenario& scen) {
  const SmokeSpec spec = scen.smoke();
  const VerifyReport report = run_smoke(scen);
  ASSERT_FALSE(report.leaves.empty());
  std::size_t proved = 0;
  std::size_t errors = 0;
  std::size_t enclosure_failures = 0;
  for (const auto& leaf : report.leaves) {
    proved += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
    errors += leaf.outcome == ReachOutcome::kErrorReachable ? 1 : 0;
    enclosure_failures += leaf.outcome == ReachOutcome::kEnclosureFailure ? 1 : 0;
  }
  switch (spec.expected) {
    case SmokeExpectation::kAllProved:
      EXPECT_EQ(proved, report.leaves.size());
      break;
    case SmokeExpectation::kAllSafe:
      EXPECT_EQ(errors, 0u);
      EXPECT_EQ(enclosure_failures, 0u);
      break;
    case SmokeExpectation::kSomeProved:
      EXPECT_GT(proved, 0u);
      EXPECT_EQ(enclosure_failures, 0u);
      break;
  }
}

TEST(ScenarioSmoke, Acasxu) { expect_smoke_holds(Registry::global().at("acasxu")); }

TEST(ScenarioSmoke, CruiseControl) {
  expect_smoke_holds(Registry::global().at("cruise_control"));
}

TEST(ScenarioSmoke, Pendulum) { expect_smoke_holds(Registry::global().at("pendulum")); }

// The pendulum exists to showcase the zonotope loop domain: the smoke spec
// above expects kAllProved under the default (zonotope) domain, while under
// the very same partition, depth, and gamma budget, the box domain wraps the
// rotating flow at every controller hand-off — it can still prove the inner
// cells (small boxes wrap little), but the outer band stays error-reachable
// at any refinement depth. If box ever fully verifies, the scenario has lost
// its discriminating power; if it reports no errors, the domains are likely
// not being threaded through the loop.
TEST(ScenarioSmoke, PendulumBoxDomainCannotVerify) {
  const Scenario& scen = Registry::global().at("pendulum");
  ASSERT_EQ(scen.default_config().reach.domain, LoopDomain::kZonotope);
  const VerifyReport report = run_smoke(scen, LoopDomain::kBox);
  ASSERT_FALSE(report.leaves.empty());
  std::size_t proved = 0;
  std::size_t errors = 0;
  for (const auto& leaf : report.leaves) {
    proved += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
    errors += leaf.outcome == ReachOutcome::kErrorReachable ? 1 : 0;
  }
  EXPECT_LT(proved, report.leaves.size());
  EXPECT_GT(errors, 0u);
}

TEST(ScenarioSmoke, Unicycle) { expect_smoke_holds(Registry::global().at("unicycle")); }

}  // namespace
}  // namespace nncs::scenario
