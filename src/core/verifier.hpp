#pragma once

#include <cstddef>
#include <vector>

#include "core/reachability.hpp"

namespace nncs {

/// One terminal cell of the partition-and-refine verification (§7.1): the
/// initial symbolic state analyzed, its refinement depth d (0 = original
/// partition cell), the index of the original cell it descends from, and
/// the analysis verdict.
struct CellOutcome {
  SymbolicState initial;
  int depth = 0;
  std::size_t root_index = 0;
  ReachOutcome outcome = ReachOutcome::kHorizonExhausted;
  ReachStats stats;
};

/// How a failed cell is refined.
enum class SplitStrategy {
  /// Bisect every dimension in `split_dims` (2^k children — the paper's
  /// §7.1 scheme).
  kAllDims,
  /// Bisect only the relatively widest dimension of `split_dims` (width
  /// normalized by the root cell's width, so mixed units compare sanely).
  /// This is the refinement heuristic the paper proposes as future work
  /// (§8: "split along the [most influential] dimension only") with width
  /// as the influence proxy; 2 children per refinement.
  kWidestDim,
};

/// Parameters of the partition-and-refine driver.
struct VerifyConfig {
  ReachConfig reach;
  /// Maximum split-refinement depth (the paper uses 2).
  int max_refinement_depth = 2;
  /// State dimensions bisected on refinement (the paper bisects x0, y0, ψ0,
  /// i.e. 2^3 children per refinement).
  std::vector<std::size_t> split_dims;
  SplitStrategy split_strategy = SplitStrategy::kAllDims;
  /// Worker threads for the per-cell analyses.
  std::size_t threads = 1;
};

/// Aggregated verification report.
struct VerifyReport {
  /// Every terminal cell (proved, or failed at max depth), in the engine's
  /// deterministic order: (root_index, depth, box lower corner).
  std::vector<CellOutcome> leaves;
  /// Summed ReachStats of interior cells — the analyses that failed and
  /// were refined away. Their CPU is real (it dominates deep refinements)
  /// but they are not terminal leaves, so they get one aggregate slot
  /// instead of per-cell rows.
  ReachStats interior_stats;
  /// Number of original (depth-0) cells, the paper's K0.
  std::size_t root_cells = 0;
  /// n_d: proved cells per refinement depth.
  std::vector<std::size_t> proved_by_depth;
  /// Paper coverage metric  c = 100/K0 · Σ_d n_d / (2^k)^d  where k is the
  /// number of split dimensions.
  double coverage_percent = 0.0;
  std::size_t proved_leaves = 0;
  std::size_t failed_leaves = 0;
  double seconds = 0.0;
};

/// The paper's coverage formula, exposed for reporting code:
/// c = 100/K0 · Σ_d n_d / split_factor^d.
double coverage_percent(std::size_t root_cells, const std::vector<std::size_t>& proved_by_depth,
                        std::size_t split_factor);

/// Fold the per-leaf ReachStats of a report — plus `interior_stats`, the
/// refined-away cells — into one aggregate: counters/seconds/phases sum,
/// `max_states` takes the maximum. `seconds` is total analysis CPU across
/// all analyzed cells (≥ report.seconds wall time when multi-threaded).
ReachStats aggregate_stats(const VerifyReport& report);

/// Zero every timing field (wall seconds, per-leaf and interior CPU
/// seconds, phase breakdowns) while leaving the deterministic payload —
/// leaves, outcomes, counters, coverage — untouched. Reports canonicalized
/// this way serialize byte-identically across runs and thread counts, so
/// CSVs can be diffed in CI.
void strip_timing(VerifyReport& report);

}  // namespace nncs
