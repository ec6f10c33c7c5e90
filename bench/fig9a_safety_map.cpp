// Experiment F9a (paper Fig 9a): the initial states for which the system
// was proved safe (green / '#','+') and those for which it could not be
// proved safe (red / 'x'), over the ribbon of initial (x0, y0, psi0).
//
// Prints an ASCII map (columns = intruder bearing, rows = heading within
// the penetration cone) plus a per-root-cell CSV with the verdict, so the
// figure can be replotted exactly.

#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nncs;
  using namespace nncs::bench;

  const std::filesystem::path artifact_dir = artifact_dir_from_args(argc, argv);
  const BenchScale scale = default_scale();
  const VerifyReport report = run_or_load_verification(scale);
  const std::vector<scenario::Cell> cells = acas_cells(scale);

  // Aggregate leaves per root cell: fully proved (at depth 0 '#', via
  // refinement '+') or not fully proved ('x').
  struct RootAgg {
    bool any_fail = false;
    bool any_refined = false;
  };
  std::map<std::size_t, RootAgg> roots;
  for (const auto& leaf : report.leaves) {
    auto& agg = roots[leaf.root_index];
    agg.any_fail = agg.any_fail || leaf.outcome != ReachOutcome::kProvedSafe;
    agg.any_refined = agg.any_refined || leaf.depth > 0;
  }

  std::printf("\nFig 9a safety map — '#' proved (depth 0), '+' proved via refinement, "
              "'x' not proved\ncolumns: bearing -pi..pi (0 = dead ahead); rows: heading "
              "within penetration cone\n\n");
  for (std::size_t h = 0; h < scale.num_headings; ++h) {
    for (std::size_t a = 0; a < scale.num_arcs; ++a) {
      const std::size_t root = a * scale.num_headings + h;
      const auto it = roots.find(root);
      char c = '?';
      if (it != roots.end()) {
        c = it->second.any_fail ? 'x' : (it->second.any_refined ? '+' : '#');
      }
      std::printf("%c", c);
    }
    std::printf("\n");
  }

  // Per-root verdict rows (proved / refined / failed).
  Table table("fig9a_safety_map",
              {"root_cell", "bearing_lo_rad", "bearing_hi_rad", "verdict"});
  for (const auto& [root, agg] : roots) {
    table.add_row({std::to_string(root), Table::num(cells[root].bin_lo, 4),
                   Table::num(cells[root].bin_hi, 4),
                   agg.any_fail ? "not-proved" : (agg.any_refined ? "proved-refined"
                                                                  : "proved")});
  }
  table.print_csv(std::cout);

  std::printf("\ncoverage: %.1f %%  (paper: 90.3 %% at 629x316/depth-2 scale)\n",
              report.coverage_percent);
  std::printf("expected shape: green at the bearing extremes (intruder behind / "
              "overtaking) and red concentrated in the crossing geometries.\n");
  write_bench_report("fig9a_safety_map", scale, report, artifact_dir);
  return 0;
}
