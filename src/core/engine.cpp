#include "core/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stopwatch.hpp"

namespace nncs {

namespace {

/// Lexicographic (lower corner, upper corner) comparison; boxes of equal
/// dimension only (guaranteed within one run).
int box_compare(const Box& a, const Box& b) {
  for (std::size_t d = 0; d < a.dim() && d < b.dim(); ++d) {
    if (a[d].lo() != b[d].lo()) {
      return a[d].lo() < b[d].lo() ? -1 : 1;
    }
    if (a[d].hi() != b[d].hi()) {
      return a[d].hi() < b[d].hi() ? -1 : 1;
    }
  }
  if (a.dim() != b.dim()) {
    return a.dim() < b.dim() ? -1 : 1;
  }
  return 0;
}

/// One cell's place in the deterministic order: (root_index, depth, box
/// lower corner, box upper corner, command).
struct CellKey {
  std::size_t root_index;
  int depth;
  const SymbolicState& cell;
};

bool key_less(const CellKey& a, const CellKey& b) {
  if (a.root_index != b.root_index) {
    return a.root_index < b.root_index;
  }
  if (a.depth != b.depth) {
    return a.depth < b.depth;
  }
  const int boxes = box_compare(a.cell.box(), b.cell.box());
  if (boxes != 0) {
    return boxes < 0;
  }
  return a.cell.command < b.cell.command;
}

/// Refine a failed cell into child boxes (the §7.1 all-dims scheme or the
/// §8 widest-dim heuristic, normalized by the root cell's widths). Only
/// dimensions whose bisection makes progress participate: a thin or
/// degenerate dimension's midpoint lands on an endpoint, so bisecting it
/// returns a child identical to the parent and the cell would be re-queued
/// unchanged until the depth cap. An empty return means no dimension can
/// make progress — the caller keeps the cell as an undecided leaf. A pure
/// function of its arguments, so `resume` can rebuild the tree `drive` made.
std::vector<Box> split_cell(const VerifyConfig& vc, const Box& root, const Box& cell,
                            int depth) {
  std::vector<std::size_t> splittable;
  splittable.reserve(vc.split_dims.size());
  for (const std::size_t d : vc.split_dims) {
    if (cell.bisectable(d)) {
      splittable.push_back(d);
    }
  }
  if (splittable.empty()) {
    return {};
  }
  if (vc.split_strategy == SplitStrategy::kAllDims) {
    return cell.split(splittable);
  }
  const std::size_t k = splittable.size();
  std::size_t best = splittable[static_cast<std::size_t>(depth) % k];
  double best_ratio = 0.0;
  {
    const double root_width = root[best].width();
    best_ratio = root_width > 0.0 ? cell[best].width() / root_width : cell[best].width();
  }
  for (const std::size_t d : splittable) {
    const double root_width = root[d].width();
    const double ratio = root_width > 0.0 ? cell[d].width() / root_width : cell[d].width();
    if (ratio > best_ratio * 1.000001) {
      best_ratio = ratio;
      best = d;
    }
  }
  auto [lower, upper] = cell.bisect(best);
  return {std::move(lower), std::move(upper)};
}

}  // namespace

bool cell_outcome_less(const CellOutcome& a, const CellOutcome& b) {
  return key_less({a.root_index, a.depth, a.initial}, {b.root_index, b.depth, b.initial});
}

bool verify_job_less(const VerifyJob& a, const VerifyJob& b) {
  return key_less({a.root_index, a.depth, a.cell}, {b.root_index, b.depth, b.cell});
}

VerificationEngine::VerificationEngine(const ClosedLoop& system, const StateRegion& error,
                                       const StateRegion& target)
    : system_(&system), error_(&error), target_(&target) {}

EngineResult VerificationEngine::run(const SymbolicSet& initial_cells, const EngineConfig& config,
                                     RunControl* control) const {
  EngineCheckpoint state;
  state.root_cells = initial_cells.size();
  state.frontier.reserve(initial_cells.size());
  for (std::size_t i = 0; i < initial_cells.size(); ++i) {
    state.frontier.push_back(VerifyJob{initial_cells[i], 0, i});
  }
  return drive(initial_cells, std::move(state), config, control);
}

EngineResult VerificationEngine::resume(const SymbolicSet& initial_cells,
                                        const EngineCheckpoint& checkpoint,
                                        const EngineConfig& config, RunControl* control) const {
  if (checkpoint.root_cells != initial_cells.size()) {
    throw std::invalid_argument(
        "VerificationEngine::resume: checkpoint was taken from a different partition (" +
        std::to_string(checkpoint.root_cells) + " root cells, got " +
        std::to_string(initial_cells.size()) + ")");
  }
  // A run under this configuration only makes cells of depth
  // 0..max_refinement_depth (anything else would also index past the
  // report's proved_by_depth) under their root cell's command.
  const VerifyConfig& vc = config.verify;
  std::vector<std::vector<std::pair<int, const SymbolicState*>>> listed(initial_cells.size());
  auto check_entry = [&](std::size_t root_index, int depth, const SymbolicState& cell,
                         const char* what) {
    const auto refuse = [&](const std::string& why) {
      throw std::invalid_argument(std::string("VerificationEngine::resume: corrupt ") + what +
                                  " entry (root " + std::to_string(root_index) + ", depth " +
                                  std::to_string(depth) + "): " + why);
    };
    if (root_index >= initial_cells.size() || depth < 0 || depth > vc.max_refinement_depth) {
      refuse("this run has " + std::to_string(initial_cells.size()) +
             " root cells and depths 0.." + std::to_string(vc.max_refinement_depth));
    }
    if (cell.command != initial_cells[root_index].command) {
      refuse("the cell's command is not its root cell's");
    }
    listed[root_index].emplace_back(depth, &cell);
  };
  for (const VerifyJob& job : checkpoint.frontier) {
    check_entry(job.root_index, job.depth, job.cell, "frontier");
  }
  for (const CellOutcome& leaf : checkpoint.leaves) {
    check_entry(leaf.root_index, leaf.depth, leaf.initial, "leaf");
  }
  // Refinement bisects a root cell into exact subsets (`split_cell`), and
  // bounds round-trip bit for bit, so a checkpoint a run wrote lists a cut
  // of each root's bisection tree: every listed cell is a tree node at its
  // depth, and every root-to-leaf path meets exactly one listed cell. Walk
  // each tree from its root, stopping at listed cells. A path that meets
  // none leaves states unverified yet reported as covered; a listed cell the
  // walk never meets lies outside the tree, inside another listed cell, or
  // twice in the list, and would verify or count the same states again.
  for (std::size_t r = 0; r < initial_cells.size(); ++r) {
    const auto refuse = [&](const std::string& why) {
      throw std::invalid_argument("VerificationEngine::resume: corrupt checkpoint: root " +
                                  std::to_string(r) + ": " + why);
    };
    const Box& root = initial_cells[r].box();
    std::vector<bool> met(listed[r].size(), false);
    std::vector<std::pair<Box, int>> walk{{root, 0}};
    while (!walk.empty()) {
      const auto [box, depth] = std::move(walk.back());
      walk.pop_back();
      const auto it = std::find_if(listed[r].begin(), listed[r].end(), [&](const auto& entry) {
        return entry.first == depth && box_compare(entry.second->box(), box) == 0;
      });
      if (it != listed[r].end()) {
        met[static_cast<std::size_t>(it - listed[r].begin())] = true;
        continue;
      }
      std::vector<Box> children;
      if (depth < vc.max_refinement_depth) {
        children = split_cell(vc, root, box, depth);
      }
      if (children.empty()) {
        refuse("no listed cell covers " + box.str() + " (depth " + std::to_string(depth) + ")");
      }
      for (Box& child : children) {
        walk.emplace_back(std::move(child), depth + 1);
      }
    }
    for (std::size_t i = 0; i < met.size(); ++i) {
      if (!met[i]) {
        refuse("listed cell " + listed[r][i].second->box().str() + " (depth " +
               std::to_string(listed[r][i].first) +
               ") is listed twice, lies inside another listed cell or is no node of the "
               "root's bisection tree");
      }
    }
  }
  return drive(initial_cells, checkpoint, config, control);
}

EngineResult VerificationEngine::drive(const SymbolicSet& initial_cells, EngineCheckpoint state,
                                       const EngineConfig& config, RunControl* external) const {
  const VerifyConfig& vc = config.verify;
  if (initial_cells.empty()) {
    throw std::invalid_argument("VerificationEngine: no initial cells");
  }
  if (vc.max_refinement_depth < 0) {
    throw std::invalid_argument("VerificationEngine: negative refinement depth");
  }

  Stopwatch watch;
  RunControl local_control;
  RunControl* control = external != nullptr ? external : &local_control;
  if (config.time_budget_seconds > 0.0) {
    control->set_time_budget(config.time_budget_seconds);
  }

  // Engine state, all guarded by `mutex`. `pending` is the one work queue
  // and the resumable frontier: workers pop its front and append the
  // children of refined cells, so whatever it holds when the run stops is
  // exactly the unfinished work.
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<VerifyJob> pending(state.frontier.begin(), state.frontier.end());
  std::vector<CellOutcome> leaves = std::move(state.leaves);
  ReachStats interior = state.interior_stats;
  std::optional<CellOutcome> violation;
  EngineProgress progress;
  progress.queue_depth = pending.size();
  progress.cells_done = leaves.size();
  for (const CellOutcome& leaf : leaves) {
    if (leaf.outcome == ReachOutcome::kProvedSafe) {
      ++progress.cells_proved;
    } else {
      ++progress.cells_failed;
    }
  }
  NNCS_GAUGE_ADD("engine.queue_depth", static_cast<std::int64_t>(pending.size()));

  // Called with `mutex` held.
  auto publish_progress = [&] {
    if (config.on_progress) {
      progress.elapsed_seconds = watch.seconds();
      config.on_progress(progress);
    }
  };

  // One worker: pop the frontier's next job, analyze it outside the lock,
  // then record its leaf or queue its children. With nothing to pop it
  // sleeps while other cells are in flight, since those may still refine
  // into new jobs; it leaves once the run stops or the tree is finished.
  auto work = [&] {
    std::unique_lock lock(mutex);
    for (;;) {
      wake.wait(lock, [&] {
        return !pending.empty() || progress.in_flight == 0 || control->stopped();
      });
      if (pending.empty() || control->stopped()) {
        break;
      }
      VerifyJob job = std::move(pending.front());
      pending.pop_front();
      ++progress.in_flight;
      progress.queue_depth = pending.size();
      lock.unlock();
      NNCS_GAUGE_ADD("engine.queue_depth", -1);
      NNCS_GAUGE_ADD("engine.cells_in_flight", 1);

      ReachResult res;
      {
        NNCS_SPAN_TAGGED("cell.analyze", "root", static_cast<std::int64_t>(job.root_index),
                         "depth", job.depth);
        res = reach_analyze(*system_, SymbolicSet{job.cell}, *error_, *target_, vc.reach,
                            control);
      }
      NNCS_GAUGE_ADD("engine.cells_in_flight", -1);

      if (res.outcome == ReachOutcome::kCancelled) {
        // Deadline hit mid-cell: the job is incomplete, so it returns to the
        // frontier (and is re-run from scratch on resume — its partial stats
        // are dropped to keep resumed reports exact).
        NNCS_COUNT("engine.cells_cancelled", 1);
        NNCS_GAUGE_ADD("engine.queue_depth", 1);
        lock.lock();
        --progress.in_flight;
        pending.push_front(std::move(job));
        progress.queue_depth = pending.size();
        continue;
      }

      const bool proved = res.outcome == ReachOutcome::kProvedSafe;
      const bool terminal_violation =
          config.stop_on_violation && res.outcome == ReachOutcome::kErrorReachable;
      if (!proved && !terminal_violation && job.depth < vc.max_refinement_depth &&
          !vc.split_dims.empty()) {
        std::vector<Box> children = split_cell(vc, initial_cells[job.root_index].box(),
                                               job.cell.box(), job.depth);
        if (children.empty()) {
          // No split dimension can make progress (all thin/degenerate): keep
          // the cell as an undecided leaf instead of re-queuing it unchanged.
          NNCS_COUNT("engine.stalled_splits", 1);
        } else {
          NNCS_COUNT("engine.cells_refined", 1);
          NNCS_GAUGE_ADD("engine.queue_depth", static_cast<std::int64_t>(children.size()));
          lock.lock();
          --progress.in_flight;
          interior += res.stats;
          ++progress.cells_refined;
          for (Box& child : children) {
            pending.push_back(VerifyJob{SymbolicState{std::move(child), job.cell.command},
                                        job.depth + 1, job.root_index});
          }
          progress.queue_depth = pending.size();
          publish_progress();
          wake.notify_all();
          continue;
        }
      }

      CellOutcome outcome;
      outcome.initial = std::move(job.cell);
      outcome.depth = job.depth;
      outcome.root_index = job.root_index;
      outcome.outcome = res.outcome;
      outcome.stats = res.stats;
      NNCS_COUNT("engine.cells_done", 1);
      if (proved) {
        NNCS_COUNT("engine.cells_proved", 1);
      } else {
        NNCS_COUNT("engine.cells_failed", 1);
      }
      lock.lock();
      --progress.in_flight;
      ++progress.cells_done;
      if (proved) {
        ++progress.cells_proved;
      } else {
        ++progress.cells_failed;
      }
      if (terminal_violation && !violation.has_value()) {
        // Early exit: no new job starts, cells already running finish (and
        // may report further violations, but only the first is recorded as
        // THE violation).
        violation = outcome;
        control->request_stop();
      }
      leaves.push_back(std::move(outcome));
      publish_progress();
    }
    // The run stopped or the tree is finished: either way every sleeping
    // worker leaves too.
    wake.notify_all();
  };

  // An exception (a checkpoint cell that does not fit the system, a bad
  // configuration) must not escape a worker thread: the first one stops
  // the run and is rethrown once every worker has joined.
  std::exception_ptr failure;
  auto worker = [&] {
    try {
      work();
    } catch (...) {
      {
        std::lock_guard lock(mutex);
        if (!failure) {
          failure = std::current_exception();
        }
        control->request_stop();
      }
      wake.notify_all();
    }
  };

  // t0 snapshot before any worker runs: heartbeat sinks (--progress-json)
  // get a baseline line even for runs that finish within one cell.
  {
    std::lock_guard lock(mutex);
    publish_progress();
  }

  {
    std::vector<std::jthread> workers;
    const std::size_t n = std::max<std::size_t>(1, vc.threads);
    workers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers.emplace_back(worker);
    }
  }
  // The workers have joined; the state is ours again.

  // Return the gauge to its pre-run level: jobs abandoned to the frontier
  // are no longer queued anywhere once the run object is gone.
  NNCS_GAUGE_ADD("engine.queue_depth", -static_cast<std::int64_t>(pending.size()));
  if (failure) {
    std::rethrow_exception(failure);
  }

  EngineResult result;
  std::sort(leaves.begin(), leaves.end(), cell_outcome_less);

  VerifyReport& report = result.report;
  report.root_cells = initial_cells.size();
  report.leaves = std::move(leaves);
  report.interior_stats = interior;
  report.proved_by_depth.assign(static_cast<std::size_t>(vc.max_refinement_depth) + 1, 0);
  for (const CellOutcome& leaf : report.leaves) {
    if (leaf.outcome == ReachOutcome::kProvedSafe) {
      ++report.proved_leaves;
      ++report.proved_by_depth[static_cast<std::size_t>(leaf.depth)];
    } else {
      ++report.failed_leaves;
    }
  }
  const std::size_t split_factor = vc.split_strategy == SplitStrategy::kAllDims
                                       ? std::size_t{1} << vc.split_dims.size()
                                       : 2;
  report.coverage_percent =
      coverage_percent(report.root_cells, report.proved_by_depth, split_factor);
  report.seconds = watch.seconds();

  result.violation = std::move(violation);
  if (result.violation.has_value()) {
    result.stop_reason = EngineStopReason::kViolation;
  } else if (!pending.empty()) {
    result.stop_reason = EngineStopReason::kStopped;
  } else {
    result.stop_reason = EngineStopReason::kComplete;
  }
  result.checkpoint.root_cells = report.root_cells;
  result.checkpoint.interior_stats = interior;
  if (!pending.empty()) {
    result.checkpoint.leaves = report.leaves;
    result.checkpoint.frontier.assign(pending.begin(), pending.end());
    std::sort(result.checkpoint.frontier.begin(), result.checkpoint.frontier.end(),
              verify_job_less);
  }
  return result;
}

}  // namespace nncs
