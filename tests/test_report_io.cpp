// Round-trip and error-handling tests for the verification-report CSV
// serialization.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/report_io.hpp"

namespace nncs {
namespace {

VerifyReport sample_report() {
  VerifyReport report;
  report.root_cells = 4;
  report.coverage_percent = 62.5;
  report.seconds = 12.75;
  report.proved_by_depth = {2, 1};
  report.interior_stats.steps_executed = 45;
  report.interior_stats.joins = 11;
  report.interior_stats.max_states = 9;
  report.interior_stats.total_simulations = 90;
  report.interior_stats.seconds = 2.25;
  report.interior_stats.phases.simulate_seconds = 1.5;
  report.interior_stats.phases.controller_seconds = 0.375;
  report.interior_stats.phases.join_seconds = 0.25;
  report.interior_stats.phases.check_seconds = 0.125;
  CellOutcome a;
  a.root_index = 0;
  a.depth = 0;
  a.outcome = ReachOutcome::kProvedSafe;
  a.stats.seconds = 0.5;
  a.stats.steps_executed = 30;
  a.stats.joins = 7;
  a.stats.max_states = 5;
  a.stats.total_simulations = 60;
  a.stats.phases.simulate_seconds = 0.25;
  a.stats.phases.controller_seconds = 0.125;
  a.stats.phases.join_seconds = 0.0625;
  a.stats.phases.check_seconds = 0.03125;
  a.initial = SymbolicState{Box{Interval{-1.0, 2.0}, Interval{0.125, 0.25}}, 3};
  CellOutcome b;
  b.root_index = 2;
  b.depth = 1;
  b.outcome = ReachOutcome::kErrorReachable;
  b.stats.seconds = 1.25;
  b.stats.steps_executed = 12;
  b.stats.total_simulations = 24;
  b.initial = SymbolicState{Box{Interval{5.0, 6.0}, Interval{-0.5, 0.5}}, 0};
  report.leaves = {a, b};
  report.proved_leaves = 1;
  report.failed_leaves = 1;
  return report;
}

TEST(ReportIo, RoundTripPreservesEverything) {
  const VerifyReport original = sample_report();
  std::stringstream buffer;
  save_report(original, buffer);
  const VerifyReport loaded = load_report(buffer);
  EXPECT_EQ(loaded.root_cells, original.root_cells);
  EXPECT_DOUBLE_EQ(loaded.coverage_percent, original.coverage_percent);
  EXPECT_DOUBLE_EQ(loaded.seconds, original.seconds);
  EXPECT_EQ(loaded.proved_by_depth, original.proved_by_depth);
  EXPECT_EQ(loaded.proved_leaves, original.proved_leaves);
  EXPECT_EQ(loaded.failed_leaves, original.failed_leaves);
  // The refined-away cells' stats, without which aggregate_stats of a
  // loaded report would miss every interior analysis.
  const ReachStats& interior = loaded.interior_stats;
  EXPECT_EQ(interior.steps_executed, original.interior_stats.steps_executed);
  EXPECT_EQ(interior.joins, original.interior_stats.joins);
  EXPECT_EQ(interior.max_states, original.interior_stats.max_states);
  EXPECT_EQ(interior.total_simulations, original.interior_stats.total_simulations);
  EXPECT_DOUBLE_EQ(interior.seconds, original.interior_stats.seconds);
  EXPECT_DOUBLE_EQ(interior.phases.simulate_seconds,
                   original.interior_stats.phases.simulate_seconds);
  EXPECT_DOUBLE_EQ(interior.phases.controller_seconds,
                   original.interior_stats.phases.controller_seconds);
  EXPECT_DOUBLE_EQ(interior.phases.join_seconds, original.interior_stats.phases.join_seconds);
  EXPECT_DOUBLE_EQ(interior.phases.check_seconds,
                   original.interior_stats.phases.check_seconds);
  ASSERT_EQ(loaded.leaves.size(), original.leaves.size());
  for (std::size_t i = 0; i < loaded.leaves.size(); ++i) {
    EXPECT_EQ(loaded.leaves[i].root_index, original.leaves[i].root_index);
    EXPECT_EQ(loaded.leaves[i].depth, original.leaves[i].depth);
    EXPECT_EQ(loaded.leaves[i].outcome, original.leaves[i].outcome);
    EXPECT_DOUBLE_EQ(loaded.leaves[i].stats.seconds, original.leaves[i].stats.seconds);
    EXPECT_EQ(loaded.leaves[i].stats.steps_executed, original.leaves[i].stats.steps_executed);
    EXPECT_EQ(loaded.leaves[i].stats.joins, original.leaves[i].stats.joins);
    EXPECT_EQ(loaded.leaves[i].stats.max_states, original.leaves[i].stats.max_states);
    EXPECT_EQ(loaded.leaves[i].stats.total_simulations,
              original.leaves[i].stats.total_simulations);
    EXPECT_DOUBLE_EQ(loaded.leaves[i].stats.phases.simulate_seconds,
                     original.leaves[i].stats.phases.simulate_seconds);
    EXPECT_DOUBLE_EQ(loaded.leaves[i].stats.phases.controller_seconds,
                     original.leaves[i].stats.phases.controller_seconds);
    EXPECT_DOUBLE_EQ(loaded.leaves[i].stats.phases.join_seconds,
                     original.leaves[i].stats.phases.join_seconds);
    EXPECT_DOUBLE_EQ(loaded.leaves[i].stats.phases.check_seconds,
                     original.leaves[i].stats.phases.check_seconds);
    EXPECT_EQ(loaded.leaves[i].initial.command, original.leaves[i].initial.command);
    EXPECT_EQ(loaded.leaves[i].initial.box(), original.leaves[i].initial.box());
  }
}

TEST(ReportIo, SavesCurrentFormatVersion) {
  std::stringstream buffer;
  save_report(sample_report(), buffer);
  EXPECT_EQ(buffer.str().rfind("nncs-report v3,", 0), 0u);
}

TEST(ReportIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "nncs_report_test.csv";
  save_report(sample_report(), path);
  const VerifyReport loaded = load_report(path);
  EXPECT_EQ(loaded.leaves.size(), 2u);
  std::filesystem::remove(path);
}

TEST(ReportIo, MissingFileThrows) {
  EXPECT_THROW(load_report(std::filesystem::path{"/nonexistent/report.csv"}),
               std::runtime_error);
}

TEST(ReportIo, BadHeaderThrows) {
  std::stringstream buffer("something-else,1,2,3\n");
  EXPECT_THROW(load_report(buffer), ReportFormatError);
  std::stringstream empty;
  EXPECT_THROW(load_report(empty), ReportFormatError);
  // Only v3 loads: a v2 report has no interior row, so its aggregate stats
  // would silently miss every refined-away cell.
  std::stringstream v2(
      "nncs-report v2,1,0,0,0\n"
      "0,0,proved-safe,0.5,30,7,5,60,0.25,0.125,0.0625,0.03125,3,-1,2\n");
  EXPECT_THROW(load_report(v2), ReportFormatError);
}

TEST(ReportIo, MalformedLeafThrows) {
  std::stringstream buffer(
      "nncs-report v3,1,0,0,0\ninterior,0,0,0,0,0,0,0,0,0\n0,0,proved-safe\n");
  EXPECT_THROW(load_report(buffer), ReportFormatError);
  // No interior row between the header and the leaves.
  std::stringstream no_interior(
      "nncs-report v3,1,0,0,0\n"
      "0,0,proved-safe,0.5,30,7,5,60,0.25,0.125,0.0625,0.03125,3,-1,2\n");
  EXPECT_THROW(load_report(no_interior), ReportFormatError);
  // A leaf of a root cell the header does not count.
  std::stringstream stray_root(
      "nncs-report v3,1,0,0,0\ninterior,0,0,0,0,0,0,0,0,0\n"
      "1,0,proved-safe,0.5,30,7,5,60,0.25,0.125,0.0625,0.03125,3,-1,2\n");
  EXPECT_THROW(load_report(stray_root), ReportFormatError);
  // Non-finite numbers, which strtod takes: every stored number is finite.
  for (const char* bad : {"inf", "-inf", "nan", "1e999"}) {
    std::stringstream bound("nncs-report v3,1,0,0,0\ninterior,0,0,0,0,0,0,0,0,0\n"
                            "0,0,proved-safe,0.5,30,7,5,60,0.25,0.125,0.0625,0.03125,3," +
                            std::string(bad) + "," + bad + "\n");
    EXPECT_THROW(load_report(bound), ReportFormatError) << "bound " << bad;
    std::stringstream seconds("nncs-report v3,1,0,0,0\ninterior,0,0,0,0,0,0,0,0,0\n"
                              "0,0,proved-safe," +
                              std::string(bad) + ",30,7,5,60,0.25,0.125,0.0625,0.03125,3,-1,2\n");
    EXPECT_THROW(load_report(seconds), ReportFormatError) << "seconds " << bad;
  }
}

TEST(ReportIo, UnknownOutcomeThrows) {
  std::stringstream buffer(
      "nncs-report v3,1,0,0,0\ninterior,0,0,0,0,0,0,0,0,0\n"
      "0,0,banana,0.1,0,0,0,0,0,0,0,0,1\n");
  EXPECT_THROW(load_report(buffer), ReportFormatError);
}

TEST(ReportIo, NumbersRoundTripBitExact) {
  VerifyReport report = sample_report();
  report.leaves[0].initial.abstract = Box{Interval{0.1, 0.30000000000000004}};
  std::stringstream buffer;
  save_report(report, buffer);
  const VerifyReport loaded = load_report(buffer);
  EXPECT_EQ(loaded.leaves[0].initial.box()[0].lo(), 0.1);
  EXPECT_EQ(loaded.leaves[0].initial.box()[0].hi(), 0.30000000000000004);
}

TEST(ReportIo, SubnormalBoundsRoundTripBitExact) {
  // Box bounds near zero can be subnormal (scenario generators produce
  // them); std::stod would reject these as out-of-range.
  VerifyReport report = sample_report();
  report.leaves[0].initial.abstract = Box{Interval{-1.5810594732565731e-319, 4.9406564584124654e-324}};
  std::stringstream buffer;
  save_report(report, buffer);
  const VerifyReport loaded = load_report(buffer);
  EXPECT_EQ(loaded.leaves[0].initial.box()[0].lo(), -1.5810594732565731e-319);
  EXPECT_EQ(loaded.leaves[0].initial.box()[0].hi(), 4.9406564584124654e-324);
}

TEST(ReportIo, CancelledOutcomeRoundTrips) {
  VerifyReport report = sample_report();
  report.leaves[1].outcome = ReachOutcome::kCancelled;
  std::stringstream buffer;
  save_report(report, buffer);
  const VerifyReport loaded = load_report(buffer);
  EXPECT_EQ(loaded.leaves[1].outcome, ReachOutcome::kCancelled);
}

EngineCheckpoint sample_checkpoint() {
  EngineCheckpoint cp;
  cp.root_cells = 4;
  cp.interior_stats.steps_executed = 90;
  cp.interior_stats.joins = 21;
  cp.interior_stats.max_states = 6;
  cp.interior_stats.total_simulations = 180;
  cp.interior_stats.seconds = 2.5;
  cp.interior_stats.phases.simulate_seconds = 1.25;
  cp.interior_stats.phases.controller_seconds = 0.5;
  cp.interior_stats.phases.join_seconds = 0.25;
  cp.interior_stats.phases.check_seconds = 0.125;
  cp.leaves = sample_report().leaves;
  VerifyJob j1;
  j1.cell = SymbolicState{Box{Interval{0.1, 0.30000000000000004}, Interval{-2.0, 2.0}}, 1};
  j1.depth = 1;
  j1.root_index = 3;
  VerifyJob j2;
  j2.cell = SymbolicState{Box{Interval{-1.0, 0.0}, Interval{0.0, 1.0}}, 0};
  j2.depth = 0;
  j2.root_index = 1;
  cp.frontier = {j1, j2};
  return cp;
}

TEST(ReportIo, CheckpointRoundTripPreservesEverything) {
  const EngineCheckpoint original = sample_checkpoint();
  std::stringstream buffer;
  save_checkpoint(original, buffer);
  EXPECT_EQ(buffer.str().rfind("nncs-checkpoint v1,", 0), 0u);
  const EngineCheckpoint loaded = load_checkpoint(buffer);
  EXPECT_EQ(loaded.root_cells, original.root_cells);
  EXPECT_EQ(loaded.interior_stats.steps_executed, original.interior_stats.steps_executed);
  EXPECT_EQ(loaded.interior_stats.joins, original.interior_stats.joins);
  EXPECT_EQ(loaded.interior_stats.max_states, original.interior_stats.max_states);
  EXPECT_EQ(loaded.interior_stats.total_simulations,
            original.interior_stats.total_simulations);
  EXPECT_DOUBLE_EQ(loaded.interior_stats.seconds, original.interior_stats.seconds);
  EXPECT_DOUBLE_EQ(loaded.interior_stats.phases.total(),
                   original.interior_stats.phases.total());
  ASSERT_EQ(loaded.leaves.size(), original.leaves.size());
  for (std::size_t i = 0; i < loaded.leaves.size(); ++i) {
    EXPECT_EQ(loaded.leaves[i].root_index, original.leaves[i].root_index);
    EXPECT_EQ(loaded.leaves[i].outcome, original.leaves[i].outcome);
    EXPECT_EQ(loaded.leaves[i].initial.box(), original.leaves[i].initial.box());
  }
  ASSERT_EQ(loaded.frontier.size(), original.frontier.size());
  for (std::size_t i = 0; i < loaded.frontier.size(); ++i) {
    EXPECT_EQ(loaded.frontier[i].root_index, original.frontier[i].root_index);
    EXPECT_EQ(loaded.frontier[i].depth, original.frontier[i].depth);
    EXPECT_EQ(loaded.frontier[i].cell.command, original.frontier[i].cell.command);
    // Bit-exact boxes: resume must analyze exactly the cells that were
    // pending, or the merged report drifts from the uninterrupted one.
    EXPECT_EQ(loaded.frontier[i].cell.box(), original.frontier[i].cell.box());
  }
}

TEST(ReportIo, CheckpointWithEmptySectionsRoundTrips) {
  EngineCheckpoint cp;
  cp.root_cells = 1;
  std::stringstream buffer;
  save_checkpoint(cp, buffer);
  const EngineCheckpoint loaded = load_checkpoint(buffer);
  EXPECT_EQ(loaded.root_cells, 1u);
  EXPECT_TRUE(loaded.leaves.empty());
  EXPECT_TRUE(loaded.frontier.empty());
  EXPECT_EQ(loaded.interior_stats.total_simulations, 0u);
}

TEST(ReportIo, CheckpointFileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "nncs_checkpoint_test.csv";
  save_checkpoint(sample_checkpoint(), path);
  const EngineCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.frontier.size(), 2u);
  std::filesystem::remove(path);
}

TEST(ReportIo, RejectedSaveKeepsTheOldFile) {
  // `nncs_verify --checkpoint F --resume F` overwrites the checkpoint it
  // resumed from, so a save that fails must leave the old file loadable.
  const auto path = std::filesystem::temp_directory_path() / "nncs_checkpoint_rejected.csv";
  auto tmp = path;
  tmp += ".tmp";
  EngineCheckpoint good = sample_checkpoint();
  good.scenario = "acasxu";
  good.fingerprint = "acasxu;1";
  save_checkpoint(good, path);
  EngineCheckpoint bad = good;
  bad.scenario = "a,b";  // commas would split the header: the save throws
  EXPECT_THROW(save_checkpoint(bad, path), std::invalid_argument);
  const EngineCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.scenario, "acasxu");
  EXPECT_EQ(loaded.frontier.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove(path);
}

TEST(ReportIo, MalformedCheckpointThrows) {
  // Wrong magic.
  std::stringstream bad_header("nncs-report v2,4\n");
  EXPECT_THROW(load_checkpoint(bad_header), ReportFormatError);
  // Truncated after the header.
  std::stringstream truncated("nncs-checkpoint v1,4\n");
  EXPECT_THROW(load_checkpoint(truncated), ReportFormatError);
  // Interior row with too few fields.
  std::stringstream bad_interior("nncs-checkpoint v1,4\ninterior,1,2\n");
  EXPECT_THROW(load_checkpoint(bad_interior), ReportFormatError);
  // Leaf section promises more rows than the file holds.
  std::stringstream missing_leaves(
      "nncs-checkpoint v1,4\n"
      "interior,0,0,0,0,0,0,0,0,0\n"
      "leaves,2\n"
      "0,0,proved-safe,0.5,30,7,5,60,0.25,0.125,0.0625,0.03125,3,-1,2\n");
  EXPECT_THROW(load_checkpoint(missing_leaves), ReportFormatError);
  // Frontier row with an odd number of box bounds.
  std::stringstream bad_frontier(
      "nncs-checkpoint v1,1\n"
      "interior,0,0,0,0,0,0,0,0,0\n"
      "leaves,0\n"
      "frontier,1\n"
      "0,0,0,1.0\n");
  EXPECT_THROW(load_checkpoint(bad_frontier), ReportFormatError);
  // Non-finite frontier bounds: strtod takes them, but no run stores one.
  for (const char* bad : {"inf", "-inf", "nan", "INF", "1e999"}) {
    std::stringstream frontier("nncs-checkpoint v1,1\n"
                               "interior,0,0,0,0,0,0,0,0,0\n"
                               "leaves,0\n"
                               "frontier,1\n"
                               "0,0,0," +
                               std::string(bad) + "," + bad + "\n");
    EXPECT_THROW(load_checkpoint(frontier), ReportFormatError) << "bound " << bad;
  }
  EXPECT_THROW(load_checkpoint(std::filesystem::path{"/nonexistent/checkpoint.csv"}),
               std::runtime_error);
}

TEST(ReportIo, CountFieldsTakeOnlyDecimalDigits) {
  // A count is a plain run of decimal digits that fits its field.
  // std::stoull alone would take "-1" as 2^64-1 (a leaf depth the engine
  // would index with) and skip signs, leading blanks and trailing junk.
  const auto checkpoint_with = [](const std::string& root, const std::string& depth) {
    return "nncs-checkpoint v1,4\ninterior,0,0,0,0,0,0,0,0,0\nleaves,1\n" + root + "," +
           depth + ",proved-safe,0,0,0,0,0,0,0,0,0,1,-0.3,0,-0.3,0\nfrontier,0\n";
  };
  std::stringstream good(checkpoint_with("3", "2"));
  const EngineCheckpoint loaded = load_checkpoint(good);
  ASSERT_EQ(loaded.leaves.size(), 1u);
  EXPECT_EQ(loaded.leaves[0].root_index, 3u);
  EXPECT_EQ(loaded.leaves[0].depth, 2);

  for (const std::string bad : {"-1", "+4", " 3", "3 ", "12abc", "", "0x1", "1e2"}) {
    std::stringstream as_root(checkpoint_with(bad, "0"));
    EXPECT_THROW(load_checkpoint(as_root), ReportFormatError) << "root '" << bad << "'";
    std::stringstream as_depth(checkpoint_with("0", bad));
    EXPECT_THROW(load_checkpoint(as_depth), ReportFormatError) << "depth '" << bad << "'";
  }
  // Digits that do not fit the field: the depth is an int, the root index
  // a size_t.
  for (const char* depth : {"2147483648", "4294967295"}) {
    std::stringstream deep(checkpoint_with("0", depth));
    EXPECT_THROW(load_checkpoint(deep), ReportFormatError) << "depth " << depth;
  }
  std::stringstream huge_root(checkpoint_with("18446744073709551616", "0"));
  EXPECT_THROW(load_checkpoint(huge_root), ReportFormatError);
  std::stringstream signed_count("nncs-checkpoint v1,+4\n");
  EXPECT_THROW(load_checkpoint(signed_count), ReportFormatError);
}

}  // namespace
}  // namespace nncs
