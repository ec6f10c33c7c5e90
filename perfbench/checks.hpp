#pragma once

/// Correctness checks of a benchmark run, all outside the timed region:
/// a verdict digest that must repeat across runs of one seed (traced or
/// not), and a soundness check that runs concrete closed-loop trajectories
/// from inside every leaf the report calls safe.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "workload.hpp"

namespace perfbench {

/// Hex FNV-1a digest over the leaves in report order: root index, depth,
/// outcome, command and the bit patterns of every box bound.
[[nodiscard]] std::string verdict_digest(const nncs::VerifyReport& report);

/// True for leaves the report claims no error is reachable from: proved
/// leaves, and horizon-exhausted ones (safe up to the horizon).
[[nodiscard]] bool leaf_is_safe(const nncs::CellOutcome& leaf);

/// c = 100/K0 · Σ_d n_d / split^d over the leaves `pick` selects.
template <class Pick>
[[nodiscard]] double weighted_percent(const nncs::VerifyReport& report, std::size_t split,
                                      Pick pick) {
  std::vector<std::size_t> by_depth;
  for (const nncs::CellOutcome& leaf : report.leaves) {
    if (pick(leaf)) {
      const auto depth = static_cast<std::size_t>(leaf.depth);
      if (by_depth.size() <= depth) {
        by_depth.resize(depth + 1, 0);
      }
      ++by_depth[depth];
    }
  }
  return nncs::coverage_percent(report.root_cells, by_depth, split);
}

struct SoundnessResult {
  std::size_t leaves = 0;
  std::size_t trajectories = 0;
  /// Root indices with a trajectory that reached the error set.
  std::vector<std::size_t> violating_roots;
};

/// From every safe leaf, simulate the concrete closed loop (the scenario's
/// own controller, q control steps) from the box corners over its
/// non-degenerate dimensions plus two seeded interior points.
[[nodiscard]] SoundnessResult check_soundness(const Setup& setup,
                                              const nncs::VerifyReport& report,
                                              std::uint64_t seed);

}  // namespace perfbench
