// Experiment HL (paper §7.2 headline numbers): the full verification run —
// total coverage c, proved-cell counts by refinement depth, and wall time.
// The paper reports c = 90.3 % after ~12 days on 2x12-core Xeons at a
// 629x316 partition with depth-2 refinement; this bench runs the identical
// pipeline at a laptop-scale partition (NNCS_SCALE to enlarge).

#include <cstdio>
#include <iostream>
#include <map>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nncs;
  using namespace nncs::bench;

  const std::filesystem::path artifact_dir = artifact_dir_from_args(argc, argv);
  // The headline run goes one refinement level deeper than the map benches.
  BenchScale scale = default_scale();
  ++scale.max_depth;
  std::size_t threads = 0;
  const VerifyReport report = run_or_load_verification(scale, &threads);

  Table table("headline_coverage", {"metric", "value", "paper_reference"});
  table.add_row({"partition_cells", std::to_string(report.root_cells), "198764"});
  table.add_row({"refinement_depth", std::to_string(scale.max_depth), "2"});
  table.add_row({"coverage_pct", Table::num(report.coverage_percent, 4), "90.3"});
  for (std::size_t d = 0; d < report.proved_by_depth.size(); ++d) {
    table.add_row({"proved_at_depth_" + std::to_string(d),
                   std::to_string(report.proved_by_depth[d]), "-"});
  }
  std::map<std::string, int> outcome_counts;
  for (const auto& leaf : report.leaves) {
    ++outcome_counts[to_string(leaf.outcome)];
  }
  for (const auto& [outcome, count] : outcome_counts) {
    table.add_row({"leaves_" + outcome, std::to_string(count), "-"});
  }
  table.add_row({"wall_time_s", Table::num(report.seconds, 4), "~1.04e6 (12 days)"});
  // A cached report does not record the thread count its wall time ran at.
  table.add_row({"threads", threads > 0 ? std::to_string(threads) : "unknown (cached run)",
                 "48"});
  table.print_all(std::cout);

  std::printf(
      "\nNote: absolute coverage is below the paper's 90.3%% because the bench-scale\n"
      "cells are orders of magnitude coarser (scale up with NNCS_SCALE to approach\n"
      "paper granularity; coverage rises monotonically with partition resolution).\n");
  write_bench_report("headline_coverage", scale, report, artifact_dir);
  return 0;
}
