// Experiment F9b (paper Fig 9b): coverage and verification time as a
// function of the intruder's initial bearing. The paper bins the initial
// positions into arcs of 500 ft and reports, per bin, the coverage (~75 %
// in the hard left/right-crossing regions vs 85-100 % elsewhere) and the
// analysis time (~5e4 s in the hard regions vs <=1e3 s elsewhere — a
// 50x contrast).

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numbers>
#include <vector>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nncs;
  using namespace nncs::bench;
  constexpr double kPi = std::numbers::pi;

  const std::filesystem::path artifact_dir = artifact_dir_from_args(argc, argv);
  const BenchScale scale = default_scale();
  const VerifyReport report = run_or_load_verification(scale);
  const std::vector<scenario::Cell> cells = acas_cells(scale);

  // Bin by bearing (8 bins across [-pi, pi]); compute the paper's coverage
  // metric per bin plus the summed analysis time.
  constexpr int kBins = 8;
  struct Bin {
    std::size_t roots = 0;
    std::vector<std::size_t> proved_by_depth;
    double seconds = 0.0;
  };
  std::vector<Bin> bins(kBins);
  for (auto& bin : bins) {
    bin.proved_by_depth.assign(static_cast<std::size_t>(scale.max_depth) + 1, 0);
  }
  std::vector<bool> root_counted(report.root_cells, false);
  for (const auto& leaf : report.leaves) {
    const scenario::Cell& root = cells[leaf.root_index];
    const double mid = 0.5 * (root.bin_lo + root.bin_hi);
    int bin = static_cast<int>((mid + kPi) / (2.0 * kPi) * kBins);
    bin = std::min(std::max(bin, 0), kBins - 1);
    if (!root_counted[leaf.root_index]) {
      root_counted[leaf.root_index] = true;
      ++bins[bin].roots;
    }
    if (leaf.outcome == ReachOutcome::kProvedSafe) {
      ++bins[bin].proved_by_depth[static_cast<std::size_t>(leaf.depth)];
    }
    bins[bin].seconds += leaf.stats.seconds;
  }

  Table table("fig9b_coverage_time",
              {"bearing_bin", "bearing_range_rad", "region", "root_cells", "coverage_pct",
               "analysis_time_s"});
  // θ convention: positive bearing = intruder to the LEFT of the heading.
  const char* regions[kBins] = {"behind-right", "right", "ahead-right", "ahead",
                                "ahead",        "ahead-left", "left",   "behind-left"};
  const std::size_t split_factor = 8;  // 2^3 split dims
  for (int b = 0; b < kBins; ++b) {
    const double lo = -kPi + 2.0 * kPi * b / kBins;
    const double hi = lo + 2.0 * kPi / kBins;
    const double coverage =
        coverage_percent(bins[b].roots, bins[b].proved_by_depth, split_factor);
    char range[64];
    std::snprintf(range, sizeof range, "[%.2f,%.2f]", lo, hi);
    table.add_row({std::to_string(b), range, regions[b], std::to_string(bins[b].roots),
                   Table::num(coverage, 4), Table::num(bins[b].seconds, 4)});
  }
  table.print_all(std::cout);
  std::printf(
      "paper shape: coverage dips (~75%% vs 85-100%%) and time peaks (~50x) in the\n"
      "crossing-geometry bins relative to head-on/overtaking bins.\n");
  write_bench_report("fig9b_coverage_time", scale, report, artifact_dir);
  return 0;
}
