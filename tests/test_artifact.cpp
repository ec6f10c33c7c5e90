// Tests for the versioned perf-artifact subsystem (obs/artifact.hpp): exact
// quantile extraction from the log2 histogram buckets, v2 round-trip and
// schema checks, the compare tool's gating semantics, the span
// self-profile tree (obs/profile.hpp), and the run summary every bench and
// `nncs_verify --metrics-out` write (core/run_report.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/report_io.hpp"
#include "core/run_report.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace nncs::obs {
namespace {

/// RAII guard: telemetry off + metrics zeroed on both ends, so tests don't
/// leak enabled-state into each other (same idiom as test_obs.cpp).
struct TelemetryGuard {
  TelemetryGuard() { clean(); }
  ~TelemetryGuard() { clean(); }
  static void clean() {
    set_enabled(false);
    TraceRecorder::instance().stop();
    Registry::instance().reset();
  }
};

/// Upper bound of the log2 bucket a duration of `ns` lands in: bucket i
/// holds bit-width-i durations, bound (2^i - 1) ns.
double bucket_upper_s(std::uint64_t ns) {
  std::size_t width = 0;
  while (ns >> width) {
    ++width;
  }
  return static_cast<double>((std::uint64_t{1} << width) - 1) * 1e-9;
}

// --- histogram quantiles ---------------------------------------------------

TEST(ArtifactQuantiles, SingleBucketAllQuantilesAtItsUpperBound) {
  TelemetryGuard guard;
  set_enabled(true);
  Histogram& h = Registry::instance().histogram("test.quantile.single");
  for (int i = 0; i < 64; ++i) {
    h.record_ns(1000);  // bit width 10 -> bucket bound 1023 ns
  }
  const HistogramSnapshot snap = h.snapshot("test.quantile.single");
  EXPECT_EQ(snap.count, 64u);
  EXPECT_DOUBLE_EQ(snap.p50_seconds, 1023e-9);
  EXPECT_DOUBLE_EQ(snap.p90_seconds, 1023e-9);
  EXPECT_DOUBLE_EQ(snap.p99_seconds, 1023e-9);
  EXPECT_DOUBLE_EQ(snap.p50_seconds, bucket_upper_s(1000));
  EXPECT_DOUBLE_EQ(snap.min_seconds, 1000e-9);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 1000e-9);
  EXPECT_DOUBLE_EQ(snap.total_seconds, 64 * 1000e-9);
}

TEST(ArtifactQuantiles, ExactRanksOnSyntheticBimodalDistribution) {
  TelemetryGuard guard;
  set_enabled(true);
  Histogram& h = Registry::instance().histogram("test.quantile.bimodal");
  // 90 fast spans (100 ns, bucket bound 127 ns), 10 slow (1 ms, bucket
  // bound 2^20-1 ns). rank = q*count over cumulative bucket counts:
  // p50 (rank 50) and p90 (rank 90) land in the fast bucket, p99 (rank 99)
  // in the slow one.
  for (int i = 0; i < 90; ++i) {
    h.record_ns(100);
  }
  for (int i = 0; i < 10; ++i) {
    h.record_ns(1'000'000);
  }
  const HistogramSnapshot snap = h.snapshot("test.quantile.bimodal");
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.p50_seconds, 127e-9);
  EXPECT_DOUBLE_EQ(snap.p90_seconds, 127e-9);
  EXPECT_DOUBLE_EQ(snap.p99_seconds, 1048575e-9);
  EXPECT_DOUBLE_EQ(snap.p99_seconds, bucket_upper_s(1'000'000));
  EXPECT_LE(snap.p50_seconds, snap.p90_seconds);
  EXPECT_LE(snap.p90_seconds, snap.p99_seconds);
}

// --- artifact round-trip ---------------------------------------------------

BenchArtifact make_test_artifact() {
  BenchArtifact a;
  a.bench = "unit_test";
  a.provenance.git_sha = "abc1234";
  a.provenance.build_type = "Release";
  a.provenance.compiler = "test-compiler 1.0";
  a.provenance.compiler_flags = "-O2 -DNDEBUG";
  a.provenance.cpu_model = "Test CPU @ 1GHz";
  a.provenance.cpu_cores = 8;
  a.provenance.scenario = "acasxu";
  a.provenance.scenario_fingerprint = "acasxu;1;arcs=6";
  a.provenance.nncs_threads = 2;
  a.scale = {{"num_arcs", 6.0}, {"num_headings", 4.0}, {"max_depth", 1.0}};
  a.canonical_results = {{"root_cells", 24.0}, {"coverage_percent", 12.5}, {"leaves", 192.0}};
  a.canonical_counters = {{"engine.cells_done", 192}, {"engine.cells_proved", 24}};
  a.wall_seconds = 3.25;
  a.wall_results = {{"phase.simulate_s", 4.7}, {"aggregate.cell_seconds", 6.4}};
  HistogramSnapshot phase;
  phase.name = "cell.analyze";
  phase.count = 216;
  phase.total_seconds = 6.36;
  phase.min_seconds = 0.001;
  phase.max_seconds = 0.13;
  phase.p50_seconds = 0.067;
  phase.p90_seconds = 0.067;
  phase.p99_seconds = 0.067;
  a.phases.push_back(phase);
  a.counters = {{"engine.cells_done", 192}, {"nn.cache.hits", 151}};
  a.gauges = {{"engine.queue_depth", 0}, {"nn.cache.bytes", 51880}};
  return a;
}

TEST(ArtifactRoundTrip, V2WriteParsePreservesEveryField) {
  const BenchArtifact a = make_test_artifact();
  std::ostringstream out;
  write_artifact(a, out);
  const BenchArtifact b = parse_artifact(out.str());

  EXPECT_EQ(b.bench, a.bench);
  EXPECT_EQ(b.provenance.git_sha, a.provenance.git_sha);
  EXPECT_EQ(b.provenance.compiler_flags, a.provenance.compiler_flags);
  EXPECT_EQ(b.provenance.cpu_model, a.provenance.cpu_model);
  EXPECT_EQ(b.provenance.cpu_cores, a.provenance.cpu_cores);
  EXPECT_EQ(b.provenance.scenario_fingerprint, a.provenance.scenario_fingerprint);
  EXPECT_EQ(b.scale, a.scale);
  EXPECT_EQ(b.canonical_results, a.canonical_results);
  EXPECT_EQ(b.canonical_counters, a.canonical_counters);
  EXPECT_DOUBLE_EQ(b.wall_seconds, a.wall_seconds);
  EXPECT_EQ(b.wall_results, a.wall_results);
  EXPECT_EQ(b.counters, a.counters);
  EXPECT_EQ(b.gauges, a.gauges);
  ASSERT_EQ(b.phases.size(), 1u);
  EXPECT_EQ(b.phases[0].name, "cell.analyze");
  EXPECT_EQ(b.phases[0].count, 216u);
  EXPECT_DOUBLE_EQ(b.phases[0].p99_seconds, 0.067);
  EXPECT_TRUE(validate_artifact(b).empty());
}

TEST(ArtifactRoundTrip, RejectsUnknownSchema) {
  EXPECT_THROW(parse_artifact(R"({"schema": "something else"})"), std::runtime_error);
  EXPECT_THROW(parse_artifact("not json"), std::runtime_error);
  // The retired v1 layout is no longer read, even when well-formed.
  EXPECT_THROW(parse_artifact(R"({"schema": "nncs-bench v1", "bench": "fig9a_safety_map",
                                  "provenance": {"git_sha": "old1234", "compiler": "gcc"},
                                  "results": {"root_cells": 32, "wall_seconds": 12.5}})"),
               std::runtime_error);
}

TEST(ArtifactRoundTrip, ValidateFlagsMissingProvenanceAndBadQuantiles) {
  BenchArtifact a = make_test_artifact();
  a.provenance.cpu_model.clear();
  a.phases[0].p50_seconds = 1.0;  // > p90: out of order
  const std::vector<std::string> problems = validate_artifact(a);
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("cpu_model"), std::string::npos);
  EXPECT_NE(problems[1].find("quantiles out of order"), std::string::npos);
}

TEST(ArtifactRoundTrip, FillMetricsSortsCanonicalCountersOut) {
  TelemetryGuard guard;
  set_enabled(true);
  Registry::instance().counter("engine.cells_done").add(42);
  Registry::instance().counter("nn.cache.hits").add(7);
  Registry::instance().counter("join.joins").add(0);
  Registry::instance().gauge("engine.queue_depth").add(3);
  BenchArtifact a;
  fill_artifact_metrics(a, Registry::instance().snapshot());
  EXPECT_EQ(a.counters.at("engine.cells_done"), 42u);
  EXPECT_EQ(a.counters.at("nn.cache.hits"), 7u);
  // Only the deterministic counters are promoted to canonical, and only
  // when they counted something.
  EXPECT_EQ(a.canonical_counters.count("engine.cells_done"), 1u);
  EXPECT_EQ(a.canonical_counters.count("nn.cache.hits"), 0u);
  EXPECT_EQ(a.counters.at("join.joins"), 0u);
  EXPECT_EQ(a.canonical_counters.count("join.joins"), 0u);
  EXPECT_EQ(a.gauges.at("engine.queue_depth"), 3);
  EXPECT_TRUE(is_canonical_counter("engine.stalled_splits"));
  EXPECT_TRUE(is_canonical_counter("ode.substeps"));
  EXPECT_FALSE(is_canonical_counter("engine.cells_cancelled"));
}

// --- compare ---------------------------------------------------------------

TEST(ArtifactCompare, SelfCompareIsAlwaysClean) {
  const BenchArtifact a = make_test_artifact();
  const CompareReport report = compare_artifacts(a, a);
  EXPECT_FALSE(report.regressed());
  EXPECT_FALSE(report.mismatched());
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_TRUE(report.identity_errors.empty());
}

TEST(ArtifactCompare, MissingCanonicalMetricIsMismatchExit2) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.canonical_results.erase("coverage_percent");
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_TRUE(report.mismatched());
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(ArtifactCompare, CanonicalKeyOnlyInCandidateFails) {
  // A run that starts recording a canonical key its baseline lacks has
  // changed: the row is a mismatch (exit 2), not a harmless "new" row.
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact with_result = baseline;
  with_result.canonical_results["safe_leaves"] = 3.0;
  BenchArtifact with_counter = baseline;
  with_counter.canonical_counters["nn.relaxed_relus"] = 17;
  for (const BenchArtifact* current : {&with_result, &with_counter}) {
    const CompareReport report = compare_artifacts(baseline, *current);
    EXPECT_TRUE(report.mismatched());
    EXPECT_EQ(report.exit_code(), 2);
    const auto row = std::find_if(report.rows.begin(), report.rows.end(), [](const auto& r) {
      return r.metric == "safe_leaves" || r.metric == "nn.relaxed_relus";
    });
    ASSERT_NE(row, report.rows.end());
    EXPECT_EQ(row->status, CompareRow::Status::kMismatch);
  }
}

TEST(ArtifactCompare, CanonicalDriftIsMismatchEvenWhenTiny) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.canonical_counters["engine.cells_done"] += 1;
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(ArtifactCompare, WallRegressionBeyondGateIsExit1) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.wall_seconds = baseline.wall_seconds * 2.0;  // +100%
  CompareOptions options;
  options.max_regress_percent = 50.0;
  const CompareReport report = compare_artifacts(baseline, current, options);
  EXPECT_TRUE(report.regressed());
  EXPECT_FALSE(report.mismatched());
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(ArtifactCompare, WallImprovementIsNotAFailure) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.wall_seconds = baseline.wall_seconds / 4.0;
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_EQ(report.exit_code(), 0);
  bool saw_improved = false;
  for (const CompareRow& row : report.rows) {
    saw_improved = saw_improved || row.status == CompareRow::Status::kImproved;
  }
  EXPECT_TRUE(saw_improved);
}

TEST(ArtifactCompare, ZeroValuedBaselineRowIsNeverGated) {
  BenchArtifact baseline = make_test_artifact();
  baseline.wall_results["phase.simulate_s"] = 0.0;
  BenchArtifact current = baseline;
  current.wall_results["phase.simulate_s"] = 100.0;  // would be a huge "regression"
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_EQ(report.exit_code(), 0);
  for (const CompareRow& row : report.rows) {
    if (row.metric == "phase.simulate_s") {
      EXPECT_EQ(row.status, CompareRow::Status::kNew);
      EXPECT_FALSE(row.gated);
    }
  }
}

TEST(ArtifactCompare, SubFloorBaselineRowsAreReportedButNotGated) {
  BenchArtifact baseline = make_test_artifact();
  baseline.wall_seconds = 0.005;  // below the 0.01 s noise floor
  BenchArtifact current = baseline;
  current.wall_seconds = 0.05;  // 10x, but scheduler noise at this scale
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(ArtifactCompare, MismatchDominatesRegression) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.wall_seconds = baseline.wall_seconds * 10.0;
  current.canonical_results["coverage_percent"] = 99.0;
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_TRUE(report.regressed());
  EXPECT_TRUE(report.mismatched());
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(ArtifactCompare, ScaleDriftIsAnIdentityError) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.scale["num_arcs"] = 12.0;
  const CompareReport report = compare_artifacts(baseline, current);
  EXPECT_FALSE(report.identity_errors.empty());
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(ArtifactCompare, CompareReportJsonCarriesExitCode) {
  const BenchArtifact baseline = make_test_artifact();
  BenchArtifact current = baseline;
  current.wall_seconds = baseline.wall_seconds * 2.0;
  CompareOptions options;
  options.max_regress_percent = 50.0;
  const CompareReport report = compare_artifacts(baseline, current, options);
  std::ostringstream out;
  write_compare_report(report, options, out);
  EXPECT_NE(out.str().find("\"schema\":\"nncs-bench-compare v1\""), std::string::npos);
  EXPECT_NE(out.str().find("\"exit_code\":1"), std::string::npos);
}

// --- span self-profile -----------------------------------------------------

TrackedTraceEvent span(std::uint32_t tid, const char* name, std::uint64_t start_ns,
                       std::uint64_t duration_ns) {
  TrackedTraceEvent e{};
  e.tid = tid;
  e.event.name = name;
  e.event.start_ns = start_ns;
  e.event.duration_ns = duration_ns;
  return e;
}

TEST(Profile, ReconstructsNestingAndExclusiveTime) {
  // Track 1: a [0, 1000us) containing two b's and one c; track 2: a bare a.
  const std::vector<TrackedTraceEvent> events = {
      span(1, "a", 0, 1'000'000),
      span(1, "b", 100'000, 200'000),
      span(1, "b", 400'000, 200'000),
      span(1, "c", 700'000, 100'000),
      span(2, "a", 0, 500'000),
  };
  const ProfileNode root = build_profile(events);
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& a = root.children.at("a");
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.inclusive_ns, 1'500'000u);
  ASSERT_EQ(a.children.size(), 2u);
  const ProfileNode& b = a.children.at("b");
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.inclusive_ns, 400'000u);
  EXPECT_EQ(b.exclusive_ns, 400'000u);  // leaf: all self time
  const ProfileNode& c = a.children.at("c");
  EXPECT_EQ(c.count, 1u);
  EXPECT_EQ(c.inclusive_ns, 100'000u);
  // a's self time excludes its children: 1.5ms - 0.4ms - 0.1ms = 1.0ms.
  EXPECT_EQ(a.exclusive_ns, 1'000'000u);
  EXPECT_EQ(root.inclusive_ns, a.inclusive_ns);
  EXPECT_EQ(root.exclusive_ns, 0u);
}

TEST(Profile, SiblingsAfterAContainedSpanDoNotNestUnderIt) {
  // b ends at 300; c starts at 300 — c is a sibling of b under a, not a
  // child of b (the stack pops spans whose end <= next start).
  const std::vector<TrackedTraceEvent> events = {
      span(1, "a", 0, 1'000'000),
      span(1, "b", 100'000, 200'000),
      span(1, "c", 300'000, 100'000),
  };
  const ProfileNode root = build_profile(events);
  const ProfileNode& a = root.children.at("a");
  EXPECT_EQ(a.children.count("b"), 1u);
  EXPECT_EQ(a.children.count("c"), 1u);
  EXPECT_TRUE(a.children.at("b").children.empty());
}

TEST(Profile, FoldedOutputEmitsSemicolonPathsInMicroseconds) {
  const std::vector<TrackedTraceEvent> events = {
      span(1, "a", 0, 1'000'000),
      span(1, "b", 100'000, 200'000),
  };
  const ProfileNode root = build_profile(events);
  std::ostringstream out;
  write_folded(root, out);
  // a: 800us exclusive; a;b: 200us exclusive.
  EXPECT_NE(out.str().find("a 800\n"), std::string::npos);
  EXPECT_NE(out.str().find("a;b 200\n"), std::string::npos);
}

// --- provenance backfill ---------------------------------------------------

TEST(Provenance, CarriesBuildAndMachineStamp) {
  const Provenance p = collect_provenance();
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_FALSE(p.compiler.empty());
  EXPECT_FALSE(p.cpu_model.empty());
  EXPECT_GT(p.cpu_cores, 0u);
}

TEST(Provenance, ScenarioFingerprintRoundTrips) {
  set_scenario("unit_scenario", "unit_scenario;1;knob=2");
  const Provenance p = collect_provenance();
  EXPECT_EQ(p.scenario, "unit_scenario");
  EXPECT_EQ(p.scenario_fingerprint, "unit_scenario;1;knob=2");
  set_scenario("", "");
}

// --- run artifact ----------------------------------------------------------

/// Two root cells: root 0 proved at depth 0; root 1 failed, was refined
/// (its analysis lands in interior_stats) into two depth-1 leaves, one
/// proved.
VerifyReport refined_report() {
  const auto leaf = [](std::size_t root, int depth, ReachOutcome outcome, int steps,
                       std::size_t joins, std::size_t max_states, std::size_t sims) {
    CellOutcome c;
    c.initial = SymbolicState{Box{Interval{0.0, 1.0}}, 0};
    c.root_index = root;
    c.depth = depth;
    c.outcome = outcome;
    c.stats.steps_executed = steps;
    c.stats.joins = joins;
    c.stats.max_states = max_states;
    c.stats.total_simulations = sims;
    c.stats.seconds = 0.5;
    c.stats.phases.simulate_seconds = 0.25;
    c.stats.phases.controller_seconds = 0.125;
    return c;
  };
  VerifyReport report;
  report.root_cells = 2;
  report.leaves = {leaf(0, 0, ReachOutcome::kProvedSafe, 20, 4, 3, 40),
                   leaf(1, 1, ReachOutcome::kProvedSafe, 20, 5, 2, 41),
                   leaf(1, 1, ReachOutcome::kErrorReachable, 7, 1, 1, 9)};
  report.interior_stats.steps_executed = 9;
  report.interior_stats.joins = 30;
  report.interior_stats.max_states = 5;
  report.interior_stats.total_simulations = 18;
  report.interior_stats.seconds = 1.0;
  report.interior_stats.phases.simulate_seconds = 0.75;
  report.proved_by_depth = {1, 1};
  report.coverage_percent = 75.0;
  report.proved_leaves = 2;
  report.failed_leaves = 1;
  report.seconds = 1.75;
  return report;
}

template <typename Map>
std::set<std::string> keys(const Map& map) {
  std::set<std::string> out;
  for (const auto& [name, value] : map) {
    out.insert(name);
  }
  return out;
}

TEST(RunArtifact, CanonicalKeysFromReport) {
  // The work counters the two committed acasxu perf-gate runs increment, on
  // top of the engine.cells_* family; each must land in the canonical
  // section, next to a scheduling-dependent counter that must not.
  const std::vector<const char*> box_work = {
      "join.joins",       "join.distance_evals",    "nn.relaxed_relus",
      "nn.symbolic_macs", "ode.enclosure_attempts", "ode.field_evals",
      "ode.series_terms", "ode.substeps"};
  const std::vector<const char*> zonotope_work = {
      "core.join_relational_drops", "join.joins",       "join.distance_evals",
      "nn.relational_steps",        "nn.relaxed_relus", "nn.zonotope_macs",
      "ode.substeps",               "ode.affine_boxed_fallbacks",
      "ode.enclosure_attempts",     "ode.field_evals",  "ode.series_terms"};
  // nncs_verify's scale keys; a non-default domain adds its own.
  const std::map<std::string, double> scale = {
      {"num_arcs", 2.0},         {"num_headings", 1.0},      {"max_depth", 1.0},
      {"control_steps", 10.0},   {"integration_steps", 4.0}, {"gamma", 5.0},
      {"taylor_order", 4.0}};
  std::map<std::string, double> zonotope_scale = scale;
  zonotope_scale["domain.zonotope"] = 1.0;
  for (const auto& [file, work, file_scale] :
       {std::tuple{"BENCH_nncs_verify_acasxu_symbolic.json", box_work, scale},
        std::tuple{"BENCH_nncs_verify_acasxu_zonotope.json", zonotope_work, zonotope_scale}}) {
    TelemetryGuard guard;
    set_enabled(true);
    for (const char* name : {"engine.cells_done", "engine.cells_proved",
                             "engine.cells_failed", "engine.cells_refined"}) {
      Registry::instance().counter(name).add(1);
    }
    for (const char* name : work) {
      Registry::instance().counter(name).add(2);
    }
    Registry::instance().counter("nn.cache.hits").add(3);
    const BenchArtifact a = make_run_artifact("nncs_verify_acasxu", file_scale, refined_report());

    // Exactly the keys of the committed baseline the compare gate reads.
    const BenchArtifact baseline =
        load_artifact(std::filesystem::path(NNCS_SOURCE_DIR) / "bench/baselines" / file);
    EXPECT_EQ(keys(a.scale), keys(baseline.scale)) << file;
    EXPECT_EQ(keys(a.canonical_results), keys(baseline.canonical_results)) << file;
    // The previous pass's counters stay registered at zero, and stay out.
    EXPECT_EQ(keys(a.canonical_counters), keys(baseline.canonical_counters)) << file;
    EXPECT_EQ(keys(a.wall_results), keys(baseline.wall_results)) << file;
    EXPECT_EQ(a.canonical_counters.at("engine.cells_done"), 1u);
    for (const char* name : work) {
      EXPECT_EQ(a.canonical_counters.at(name), 2u) << name;
    }
    EXPECT_EQ(a.canonical_counters.count("nn.cache.hits"), 0u);
    EXPECT_EQ(a.counters.at("nn.cache.hits"), 3u);
  }

  const BenchArtifact a = make_run_artifact(
      "nncs_verify_acasxu", {{"num_arcs", 2.0}, {"num_headings", 1.0}, {"max_depth", 1.0}},
      refined_report());
  const auto& r = a.canonical_results;
  EXPECT_EQ(r.at("root_cells"), 2.0);
  EXPECT_EQ(r.at("coverage_percent"), 75.0);
  EXPECT_EQ(r.at("leaves"), 3.0);
  EXPECT_EQ(r.at("proved_by_depth.0"), 1.0);
  EXPECT_EQ(r.at("proved_by_depth.1"), 1.0);
  // aggregate.* counts the refined-away root too.
  EXPECT_EQ(r.at("aggregate.steps_executed"), 20.0 + 20.0 + 7.0 + 9.0);
  EXPECT_EQ(r.at("aggregate.joins"), 4.0 + 5.0 + 1.0 + 30.0);
  EXPECT_EQ(r.at("aggregate.max_states"), 5.0);
  EXPECT_EQ(r.at("aggregate.total_simulations"), 40.0 + 41.0 + 9.0 + 18.0);

  EXPECT_EQ(a.wall_seconds, 1.75);
  EXPECT_EQ(a.wall_results.at("aggregate.cell_seconds"), 0.5 * 3 + 1.0);
  EXPECT_EQ(a.wall_results.at("phase.simulate_s"), 0.25 * 3 + 0.75);
  EXPECT_EQ(a.wall_results.at("phase.controller_s"), 0.125 * 3);
  EXPECT_EQ(a.wall_results.at("phase.total_s"), 0.375 * 3 + 0.75);
  EXPECT_TRUE(validate_artifact(a).empty());
}

TEST(RunArtifact, SavedReportGivesTheSameArtifact) {
  // The figure benches build their artifact from a cached report: it must
  // equal the one of the run that saved it.
  const VerifyReport fresh = refined_report();
  std::stringstream cache;
  save_report(fresh, cache);
  const BenchArtifact a = make_run_artifact("fig", {}, fresh);
  const BenchArtifact b = make_run_artifact("fig", {}, load_report(cache));
  EXPECT_EQ(a.canonical_results, b.canonical_results);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.wall_results, b.wall_results);
}

}  // namespace
}  // namespace nncs::obs
