// Tests for the scenario layer (src/scenario/): registry semantics,
// deterministic partitions, fingerprint/checkpoint stamping, and one cheap
// end-to-end verification per registered scenario (the SmokeSpec contract —
// adding a scenario means declaring what "working" looks like here).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "acasxu/scenario.hpp"
#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "obs/provenance.hpp"
#include "scenario/scenario.hpp"
#include "scenario/unicycle.hpp"

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

TEST(ScenarioRegistry, ForEachVisitsAllSorted) {
  std::vector<std::string> names;
  Registry::global().for_each([&](const Scenario& s) { names.push_back(s.name()); });
  EXPECT_EQ(names.size(), Registry::global().size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// ------------------------------------------------------- metadata contract

TEST(ScenarioContract, MetadataIsWellFormed) {
  Registry::global().for_each([](const Scenario& s) {
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
  });
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
  Registry::global().for_each([](const Scenario& s) {
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
  });
}

TEST(ScenarioCells, AcasxuMatchesLegacyGenerator) {
  const auto cells = Registry::global().at("acasxu").make_cells(Partition{8, 4});
  acasxu::ScenarioConfig config;
  config.num_arcs = 8;
  config.num_headings = 4;
  const auto legacy = acasxu::make_initial_cells(config);
  ASSERT_EQ(cells.size(), legacy.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].state.box(), legacy[i].state.box());
    EXPECT_EQ(cells[i].state.command, legacy[i].state.command);
    EXPECT_EQ(cells[i].bin_lo, legacy[i].bearing_lo);
    EXPECT_EQ(cells[i].bin_hi, legacy[i].bearing_hi);
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

// -------------------------------------------------------------- fingerprint

TEST(ScenarioFingerprint, DeterministicAndCsvSafe) {
  Registry::global().for_each([](const Scenario& s) {
    SCOPED_TRACE(s.name());
    const std::string fp = fingerprint(s, Partition{});
    EXPECT_EQ(fp, fingerprint(s, Partition{}));
    EXPECT_NE(fp.find(s.name()), std::string::npos);
    EXPECT_EQ(fp.find(','), std::string::npos);
    EXPECT_EQ(fp.find('\n'), std::string::npos);
  });
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
