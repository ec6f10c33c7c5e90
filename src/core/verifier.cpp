#include "core/verifier.hpp"

namespace nncs {

double coverage_percent(std::size_t root_cells, const std::vector<std::size_t>& proved_by_depth,
                        std::size_t split_factor) {
  if (root_cells == 0) {
    return 0.0;
  }
  double covered = 0.0;
  double weight = 1.0;
  for (const std::size_t n_d : proved_by_depth) {
    covered += static_cast<double>(n_d) * weight;
    weight /= static_cast<double>(split_factor);
  }
  return 100.0 * covered / static_cast<double>(root_cells);
}

ReachStats aggregate_stats(const VerifyReport& report) {
  ReachStats total = report.interior_stats;
  for (const auto& leaf : report.leaves) {
    total += leaf.stats;
  }
  return total;
}

namespace {

void strip_timing(ReachStats& stats) {
  stats.seconds = 0.0;
  stats.phases = PhaseBreakdown{};
}

}  // namespace

void strip_timing(VerifyReport& report) {
  report.seconds = 0.0;
  strip_timing(report.interior_stats);
  for (auto& leaf : report.leaves) {
    strip_timing(leaf.stats);
  }
}

}  // namespace nncs
