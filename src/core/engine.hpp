#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/run_control.hpp"
#include "core/verifier.hpp"

namespace nncs {

/// One pending unit of work in the partition-and-refine scheme (§7.1): an
/// initial cell (or a refinement of one) awaiting analysis.
struct VerifyJob {
  SymbolicState cell;
  int depth = 0;
  std::size_t root_index = 0;
};

/// Resumable snapshot of a partially completed run: the terminal leaves
/// finished so far, the stats of refined-away interior cells, and the
/// unfinished frontier. Serialized via `save_checkpoint` / `load_checkpoint`
/// (report_io); feeding it back through `VerificationEngine::resume` with
/// the same partition and parameters continues to an identical final
/// report.
struct EngineCheckpoint {
  /// Size of the original depth-0 partition (consistency check on resume).
  std::size_t root_cells = 0;
  /// Scenario name and parameter fingerprint the run was produced under
  /// (empty on engine-made checkpoints and legacy v1 files; drivers stamp
  /// them before saving). A resume under a different scenario or partition
  /// is refused by the CLI — a mismatched frontier would silently verify
  /// the wrong cells.
  std::string scenario;
  std::string fingerprint;
  /// Accumulated ReachStats of interior (refined-away) cells.
  ReachStats interior_stats;
  std::vector<CellOutcome> leaves;
  std::vector<VerifyJob> frontier;
};

/// Point-in-time view of a run, passed to the progress callback once at
/// start (the t0 snapshot) and after every scheduling event (cell finished,
/// cell refined).
struct EngineProgress {
  /// Wall-clock seconds since the run (or resume) started.
  double elapsed_seconds = 0.0;
  /// Jobs waiting in the queue.
  std::size_t queue_depth = 0;
  /// Cells currently being analyzed by workers.
  std::size_t in_flight = 0;
  /// Terminal leaves recorded (proved + failed).
  std::size_t cells_done = 0;
  std::size_t cells_proved = 0;
  std::size_t cells_failed = 0;
  /// Interior cells split into children.
  std::size_t cells_refined = 0;
};

/// Engine-level knobs on top of the per-cell VerifyConfig; `EngineConfig{verify}`
/// leaves them all off (a plain run to completion).
struct EngineConfig {
  VerifyConfig verify;
  /// Wall-clock budget in seconds; <= 0 means unlimited. When it expires
  /// the run checkpoints: in-flight cells are cancelled at the next control
  /// step, queued cells are abandoned to the frontier.
  double time_budget_seconds = 0.0;
  /// Stop the whole run the moment any cell terminates kErrorReachable (the
  /// common falsification workflow). The offending cell becomes a terminal
  /// leaf even below max_refinement_depth.
  bool stop_on_violation = false;
  /// Invoked with the engine's state mutex held after every completed cell
  /// analysis — keep it cheap and do not call back into the engine. May run
  /// on any worker thread, but never concurrently.
  std::function<void(const EngineProgress&)> on_progress{};
};

/// Why a run returned.
enum class EngineStopReason {
  /// Frontier empty: every cell reached a terminal verdict.
  kComplete,
  /// RunControl stopped the run (deadline, signal, or request_stop()).
  kStopped,
  /// stop_on_violation fired.
  kViolation,
};

struct EngineResult {
  /// Deterministic report: leaves sorted by (root_index, depth, box lower
  /// corner) regardless of thread count or scheduling.
  VerifyReport report;
  EngineStopReason stop_reason = EngineStopReason::kComplete;
  [[nodiscard]] bool complete() const { return stop_reason == EngineStopReason::kComplete; }
  /// Snapshot to persist when !complete(); its frontier is empty (and the
  /// checkpoint redundant) when the run finished.
  EngineCheckpoint checkpoint;
  /// First error-reachable terminal leaf when stop_on_violation fired.
  std::optional<CellOutcome> violation;
};

/// The partition-and-refine safety verifier (§7.1 "Split refinement"):
/// each initial cell is an independent verification problem, and cells that
/// cannot be proved are bisected along `split_dims` and re-analyzed up to
/// `max_refinement_depth`. `run(...).report` is the plain verification;
/// budgets, early exit, progress and checkpoint/resume ride on the same
/// call.
///
/// The engine keeps one pending-job queue, and `max(1, VerifyConfig::threads)`
/// workers pop it one job at a time, so on stop the queue contents *are*
/// the resumable frontier. A cell cancelled mid-analysis (deadline inside
/// reach_analyze) returns to the frontier and is re-run from scratch on
/// resume, which keeps its stats exact.
class VerificationEngine {
 public:
  /// Non-owning: the system and regions must outlive the engine.
  VerificationEngine(const ClosedLoop& system, const StateRegion& error,
                     const StateRegion& target);

  /// Analyze a fresh partition. `control` (optional) allows external
  /// cancellation (e.g. a SIGINT flag); the time budget, when set, is armed
  /// on it. An exception a cell analysis throws on a worker thread (such as
  /// reach_analyze's std::invalid_argument for a cell that does not fit the
  /// system) stops the run and is rethrown here.
  [[nodiscard]] EngineResult run(const SymbolicSet& initial_cells, const EngineConfig& config,
                                 RunControl* control = nullptr) const;

  /// Continue a checkpointed run. `initial_cells` must be the same depth-0
  /// partition the checkpoint was taken from (checked against
  /// `checkpoint.root_cells`; needed to normalize kWidestDim splits). Every
  /// leaf and frontier cell must lie inside its root cell, with the root's
  /// command, at a depth this configuration can reach; otherwise throws
  /// `std::invalid_argument` before any cell is analyzed.
  [[nodiscard]] EngineResult resume(const SymbolicSet& initial_cells,
                                    const EngineCheckpoint& checkpoint,
                                    const EngineConfig& config,
                                    RunControl* control = nullptr) const;

 private:
  EngineResult drive(const SymbolicSet& initial_cells, EngineCheckpoint state,
                     const EngineConfig& config, RunControl* external) const;

  const ClosedLoop* system_;
  const StateRegion* error_;
  const StateRegion* target_;
};

/// The deterministic leaf order of engine reports: (root_index, depth, box
/// lower corner, box upper corner, command). A strict weak ordering that is
/// total for the leaf sets the refinement scheme can produce.
[[nodiscard]] bool cell_outcome_less(const CellOutcome& a, const CellOutcome& b);

/// Same key over pending jobs (checkpoint frontier order).
[[nodiscard]] bool verify_job_less(const VerifyJob& a, const VerifyJob& b);

}  // namespace nncs
