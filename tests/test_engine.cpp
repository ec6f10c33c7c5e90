// Tests for the cancellable job-queue verification engine: its worker
// pool, determinism across thread counts, cooperative cancellation,
// budgets, early exit on violation, and checkpoint/resume.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "closed_loop_fixtures.hpp"
#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "obs/metrics.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::threshold_controller;

const TaylorIntegrator kIntegrator;

/// Same braking setup the verifier tests use: always-coast vehicle, safety
/// decided by the sign of the closing speed v, mixed cells refine.
struct EngineSetup {
  std::unique_ptr<Dynamics> plant = braking_plant();
  std::unique_ptr<NeuralController> ctrl = threshold_controller(-1e9, -8.0);
  ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  BoxRegion error{{{0, Interval{-1e9, 0.0}}}};
  BoxRegion target{{{0, Interval{20.0, 1e9}}}};

  EngineConfig config() const {
    EngineConfig ec;
    ec.verify.reach.control_steps = 30;
    ec.verify.reach.integration_steps = 2;
    ec.verify.reach.gamma = 4;
    ec.verify.reach.integrator = &kIntegrator;
    ec.verify.max_refinement_depth = 2;
    ec.verify.split_dims = {1};
    ec.verify.threads = 2;
    return ec;
  }

  VerificationEngine engine() const { return VerificationEngine(system, error, target); }
};

/// Mixed cells (v straddles 0) so the run exercises refinement.
SymbolicSet mixed_cells(int n) {
  SymbolicSet cells;
  for (int i = 0; i < n; ++i) {
    cells.push_back({Box{Interval{4.0 + i, 5.0 + i}, Interval{-2.0, 2.0}}, 0});
  }
  return cells;
}

std::string canonical_csv(VerifyReport report) {
  strip_timing(report);
  std::ostringstream os;
  save_report(report, os);
  return os.str();
}

/// Cells p in [0, 4] moving away from the obstacle at distinct constant
/// speeds. The edge p = 0 lies in the error region, so each cell fails, and
/// bisecting p gives an upper child that proves and a lower child that
/// fails again: a refinement chain one cell wide, down to the depth cap.
SymbolicSet chain_cells(int n) {
  SymbolicSet cells;
  for (int i = 0; i < n; ++i) {
    const double v = -1.0 - i;
    cells.push_back({Box{Interval{0.0, 4.0}, Interval{v, v}}, 0});
  }
  return cells;
}

EngineConfig chain_config(const EngineSetup& s, int depth, std::size_t threads) {
  EngineConfig ec = s.config();
  ec.verify.split_dims = {0};
  ec.verify.max_refinement_depth = depth;
  ec.verify.threads = threads;
  return ec;
}

TEST(Engine, CompleteRunMatchesVerifier) {
  // A time budget, a progress callback and an external RunControl armed but
  // never firing: the run completes and reports exactly what the plain
  // verification, EngineConfig{verify}, reports.
  EngineSetup s;
  const auto cells = mixed_cells(3);
  EngineConfig ec = s.config();
  ec.time_budget_seconds = 3600.0;
  std::size_t events = 0;
  ec.on_progress = [&events](const EngineProgress&) { ++events; };
  RunControl control;
  const EngineResult result = s.engine().run(cells, ec, &control);
  EXPECT_EQ(result.stop_reason, EngineStopReason::kComplete);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.checkpoint.frontier.empty());
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_GT(events, 1u);

  const VerifyReport plain = s.engine().run(cells, EngineConfig{s.config().verify}).report;
  EXPECT_EQ(canonical_csv(result.report), canonical_csv(plain));
}

TEST(Engine, LeavesAreSortedDeterministically) {
  EngineSetup s;
  const EngineResult result = s.engine().run(mixed_cells(4), s.config());
  const auto& leaves = result.report.leaves;
  EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end(), cell_outcome_less));
  // Strictly sorted: no two leaves share (root, depth, box, command).
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    EXPECT_TRUE(cell_outcome_less(leaves[i - 1], leaves[i]));
  }
}

TEST(Engine, CanonicalReportIsByteIdenticalAcrossThreadCounts) {
  EngineSetup s;
  const auto cells = mixed_cells(6);
  EngineConfig one = s.config();
  one.verify.threads = 1;
  EngineConfig eight = s.config();
  eight.verify.threads = 8;
  const EngineResult a = s.engine().run(cells, one);
  const EngineResult b = s.engine().run(cells, eight);
  EXPECT_EQ(canonical_csv(a.report), canonical_csv(b.report));
  // Interior counters are deterministic sums too (only timing may differ).
  EXPECT_EQ(a.report.interior_stats.steps_executed, b.report.interior_stats.steps_executed);
  EXPECT_EQ(a.report.interior_stats.total_simulations,
            b.report.interior_stats.total_simulations);
}

TEST(Engine, MoreWorkersThanCellsMatchOneWorker) {
  // Two root cells refined to depth 2 under 16 workers: most workers start
  // with nothing to pop and must wait for refinements instead of leaving,
  // and the report must not depend on who ran which cell.
  EngineSetup s;
  const auto cells = mixed_cells(2);
  EngineConfig one = s.config();
  one.verify.threads = 1;
  EngineConfig many = s.config();
  many.verify.threads = 16;
  const EngineResult a = s.engine().run(cells, one);
  const EngineResult b = s.engine().run(cells, many);
  EXPECT_EQ(b.stop_reason, EngineStopReason::kComplete);
  EXPECT_TRUE(b.complete());
  EXPECT_TRUE(b.checkpoint.frontier.empty());
  EXPECT_FALSE(b.violation.has_value());
  EXPECT_GT(b.report.interior_stats.steps_executed, 0);
  EXPECT_GT(b.report.proved_by_depth.at(2), 0u);
  EXPECT_EQ(canonical_csv(a.report), canonical_csv(b.report));
}

TEST(Engine, StopOnViolationUnderManyWorkersLosesNoCell) {
  // Unsafe cells interleaved with mixed ones that refine: when the first
  // violation stops the run, every root cell must still be accounted for,
  // as a leaf or as frontier work, whichever worker held it.
  EngineSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 12; ++i) {
    const Interval v = i % 3 == 0 ? Interval{1.0, 2.0} : Interval{-2.0, 2.0};
    cells.push_back({Box{Interval{4.0 + i, 5.0 + i}, v}, 0});
  }
  EngineConfig ec = s.config();
  ec.verify.threads = 8;
  ec.stop_on_violation = true;
  const EngineResult result = s.engine().run(cells, ec);
  EXPECT_EQ(result.stop_reason, EngineStopReason::kViolation);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->outcome, ReachOutcome::kErrorReachable);
  std::set<std::size_t> roots;
  for (const CellOutcome& leaf : result.report.leaves) {
    roots.insert(leaf.root_index);
  }
  for (const VerifyJob& job : result.checkpoint.frontier) {
    roots.insert(job.root_index);
  }
  EXPECT_EQ(roots.size(), cells.size());
}

// The engine's worker pool: max(1, threads) workers pop one queue and push
// the children of refined cells back on it. These check the scheduler
// itself, through runs: the worker count, work queued by work, idle
// workers waking, and a stop with work queued and in flight.

TEST(ThreadPool, AtLeastOneWorker) {
  // A thread count of 0 still runs every cell, all on one worker thread
  // (not the caller's).
  EngineSetup s;
  const auto cells = mixed_cells(3);
  EngineConfig none = s.config();
  none.verify.threads = 0;
  std::set<std::thread::id> workers;
  none.on_progress = [&workers](const EngineProgress& p) {
    if (p.cells_done + p.cells_refined > 0) {
      workers.insert(std::this_thread::get_id());
    }
  };
  const EngineResult result = s.engine().run(cells, none);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);

  EngineConfig one = s.config();
  one.verify.threads = 1;
  EXPECT_EQ(canonical_csv(result.report), canonical_csv(s.engine().run(cells, one).report));
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  // Ten root cells on three workers: each fails, its worker queues two
  // children, and the workers run those too, 30 analyses in all.
  EngineSetup s;
  EngineProgress last;
  EngineConfig ec = chain_config(s, 1, 3);
  ec.on_progress = [&last](const EngineProgress& p) { last = p; };
  const EngineResult result = s.engine().run(chain_cells(10), ec);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(last.cells_refined, 10u);
  EXPECT_EQ(last.cells_done, 20u);
  EXPECT_EQ(last.cells_proved, 10u);
  ASSERT_EQ(result.report.leaves.size(), 20u);
  for (const CellOutcome& leaf : result.report.leaves) {
    EXPECT_EQ(leaf.depth, 1);
  }
}

TEST(ThreadPool, DeepRecursiveSubmission) {
  // Four chains 16 refinements deep on two workers: every job past the roots
  // is queued by a worker, and the workers must keep making progress on it.
  EngineSetup s;
  constexpr int kDepth = 16;
  const auto cells = chain_cells(4);
  const EngineResult result = s.engine().run(cells, chain_config(s, kDepth, 2));
  EXPECT_TRUE(result.complete());
  // Per root: one proved leaf at each depth 1..16, one failed leaf at 16.
  EXPECT_EQ(result.report.leaves.size(), 4u * (kDepth + 1));
  EXPECT_EQ(result.report.proved_by_depth.at(0), 0u);
  for (int d = 1; d <= kDepth; ++d) {
    EXPECT_EQ(result.report.proved_by_depth.at(static_cast<std::size_t>(d)), 4u) << "depth " << d;
  }
  EXPECT_EQ(result.report.failed_leaves, 4u);
  EXPECT_EQ(canonical_csv(result.report),
            canonical_csv(s.engine().run(cells, chain_config(s, kDepth, 1)).report));
}

TEST(ThreadPool, MultipleWaitersAllWake) {
  // One root cell on eight workers, many times over: seven workers find the
  // queue empty and sleep while the cell, and then its children, are in
  // flight. A run returns only once every worker has woken and joined.
  EngineSetup s;
  const auto cells = chain_cells(1);
  const EngineConfig ec = chain_config(s, 3, 8);
  const std::string reference =
      canonical_csv(s.engine().run(cells, chain_config(s, 3, 1)).report);
  for (int i = 0; i < 25; ++i) {
    const EngineResult result = s.engine().run(cells, ec);
    ASSERT_TRUE(result.complete()) << "run " << i;
    ASSERT_EQ(canonical_csv(result.report), reference) << "run " << i;
  }
}

TEST(ThreadPool, DrainDiscardsQueuedButFinishesInFlight) {
  // One worker, an unsafe cell first and ten safe ones queued behind it. The
  // violation stops the run: the cell in flight finishes as a leaf, and the
  // ten queued cells are never started but kept, untouched, as the frontier.
  EngineSetup s;
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{1.0, 2.0}}, 0}};
  for (int i = 0; i < 10; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-2.0, -1.0}}, 0});
  }
  EngineConfig ec = s.config();
  ec.verify.threads = 1;
  ec.stop_on_violation = true;
  const EngineResult result = s.engine().run(cells, ec);
  EXPECT_EQ(result.stop_reason, EngineStopReason::kViolation);
  ASSERT_EQ(result.report.leaves.size(), 1u);
  EXPECT_EQ(result.report.leaves[0].root_index, 0u);
  EXPECT_EQ(result.report.leaves[0].outcome, ReachOutcome::kErrorReachable);
  EXPECT_EQ(result.report.interior_stats.steps_executed, 0);
  ASSERT_EQ(result.checkpoint.frontier.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result.checkpoint.frontier[i].root_index, i + 1);
    EXPECT_EQ(result.checkpoint.frontier[i].depth, 0);
  }
}

TEST(ThreadPool, WaitIdleReturnsAfterDrainUnderContention) {
  // Four workers on eight chains that keep queueing children; a stop
  // requested mid-run must still let the run return, with no job lost, and
  // nothing may run after it has returned.
  EngineSetup s;
  constexpr int kDepth = 12;
  const auto cells = chain_cells(8);
  RunControl control;
  std::atomic<std::size_t> events{0};
  EngineConfig ec = chain_config(s, kDepth, 4);
  ec.on_progress = [&](const EngineProgress& p) {
    events.fetch_add(1);
    if (p.cells_done + p.cells_refined >= 40) {
      control.request_stop();
    }
  };
  const EngineResult interrupted = s.engine().run(cells, ec, &control);
  EXPECT_EQ(interrupted.stop_reason, EngineStopReason::kStopped);
  EXPECT_FALSE(interrupted.checkpoint.frontier.empty());
  const std::size_t after_stop = events.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(events.load(), after_stop);

  // Resuming the frontier ends in the uninterrupted report.
  const EngineResult resumed =
      s.engine().resume(cells, interrupted.checkpoint, chain_config(s, kDepth, 4));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(canonical_csv(resumed.report),
            canonical_csv(s.engine().run(cells, chain_config(s, kDepth, 1)).report));
}

TEST(Engine, DegenerateSplitDimStallsInsteadOfLoopingForever) {
  // A failing cell that is degenerate in the only split dimension used to be
  // re-queued with two children identical to itself, refining pointlessly to
  // max depth. It must instead become an undecided leaf at its current depth
  // and bump the engine.stalled_splits counter.
  EngineSetup s;
  SymbolicSet cells;
  cells.push_back({Box{Interval{4.0, 5.0}, Interval{2.0, 2.0}}, 0});
  EngineConfig config = s.config();
  config.verify.max_refinement_depth = 6;

  obs::set_enabled(true);
  const std::uint64_t before =
      obs::Registry::instance().snapshot().counter("engine.stalled_splits");
  const EngineResult result = s.engine().run(cells, config);
  const std::uint64_t after =
      obs::Registry::instance().snapshot().counter("engine.stalled_splits");
  obs::set_enabled(false);

  ASSERT_EQ(result.report.leaves.size(), 1u);
  EXPECT_EQ(result.report.leaves[0].depth, 0);
  EXPECT_NE(result.report.leaves[0].outcome, ReachOutcome::kProvedSafe);
  EXPECT_GE(after - before, 1u);
}

TEST(Engine, PartiallyDegenerateCellSplitsRemainingDims) {
  // Same degenerate-v cell, but with both dimensions listed: the engine
  // should split the one bisectable dimension (p) and still make progress.
  EngineSetup s;
  SymbolicSet cells;
  cells.push_back({Box{Interval{4.0, 5.0}, Interval{2.0, 2.0}}, 0});
  EngineConfig config = s.config();
  config.verify.split_dims = {0, 1};
  config.verify.max_refinement_depth = 1;
  const EngineResult result = s.engine().run(cells, config);
  ASSERT_EQ(result.report.leaves.size(), 2u);
  for (const CellOutcome& leaf : result.report.leaves) {
    EXPECT_EQ(leaf.depth, 1);
    // Only dimension 0 was split; the degenerate dimension is untouched.
    EXPECT_EQ(leaf.initial.box()[1], (Interval{2.0, 2.0}));
  }
}

TEST(Engine, StoppedControlCancelsReachAnalyze) {
  EngineSetup s;
  RunControl control;
  control.request_stop();
  const ReachConfig rc = s.config().verify.reach;
  const auto res = reach_analyze(s.system, mixed_cells(1), s.error, s.target, rc, &control);
  EXPECT_EQ(res.outcome, ReachOutcome::kCancelled);
  EXPECT_EQ(res.stats.steps_executed, 0);
  EXPECT_STREQ(to_string(res.outcome), "cancelled");
}

TEST(Engine, ExpiredDeadlineCancelsReachAnalyze) {
  EngineSetup s;
  RunControl control;
  control.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(control.stopped());
  const ReachConfig rc = s.config().verify.reach;
  const auto res = reach_analyze(s.system, mixed_cells(1), s.error, s.target, rc, &control);
  EXPECT_EQ(res.outcome, ReachOutcome::kCancelled);
}

TEST(Engine, TimeBudgetCheckpointsAndResumeMatchesReference) {
  EngineSetup s;
  const auto cells = mixed_cells(4);
  const EngineResult reference = s.engine().run(cells, s.config());
  ASSERT_TRUE(reference.complete());

  // A budget far below one cell's analysis time: the run stops with work
  // left over (whatever subset did finish is merged on resume).
  EngineConfig budgeted = s.config();
  budgeted.time_budget_seconds = 1e-6;
  const EngineResult interrupted = s.engine().run(cells, budgeted);
  ASSERT_EQ(interrupted.stop_reason, EngineStopReason::kStopped);
  ASSERT_FALSE(interrupted.checkpoint.frontier.empty());
  EXPECT_EQ(interrupted.checkpoint.root_cells, cells.size());

  // Round-trip the checkpoint through its serialization, like the CLI does.
  std::stringstream buffer;
  save_checkpoint(interrupted.checkpoint, buffer);
  const EngineCheckpoint restored = load_checkpoint(buffer);

  const EngineResult resumed = s.engine().resume(cells, restored, s.config());
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(canonical_csv(resumed.report), canonical_csv(reference.report));
  EXPECT_DOUBLE_EQ(resumed.report.coverage_percent, reference.report.coverage_percent);
}

TEST(Engine, StopOnViolationExitsEarly) {
  EngineSetup s;
  // First cell certainly unsafe (v > 0), the rest safe; one worker so the
  // violation fires before anything else runs.
  SymbolicSet cells{{Box{Interval{5.0, 6.0}, Interval{1.0, 2.0}}, 0}};
  for (int i = 0; i < 3; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-2.0, -1.0}}, 0});
  }
  EngineConfig ec = s.config();
  ec.verify.threads = 1;
  ec.stop_on_violation = true;
  const EngineResult result = s.engine().run(cells, ec);
  EXPECT_EQ(result.stop_reason, EngineStopReason::kViolation);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->outcome, ReachOutcome::kErrorReachable);
  EXPECT_EQ(result.violation->root_index, 0u);
  // The offending cell is a terminal leaf even below max_refinement_depth.
  EXPECT_EQ(result.violation->depth, 0);
  // The untouched cells survive in the frontier for a later resume.
  EXPECT_FALSE(result.checkpoint.frontier.empty());

  // Resuming (without the early exit) finishes the safe remainder.
  const EngineResult resumed = s.engine().resume(cells, result.checkpoint, s.config());
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.report.leaves.size(), 4u);
  EXPECT_EQ(resumed.report.proved_leaves, 3u);
}

TEST(Engine, ProgressCallbackObservesRunAndCanStopIt) {
  EngineSetup s;
  SymbolicSet cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back({Box{Interval{5.0 + i, 6.0 + i}, Interval{-2.0, -1.0}}, 0});
  }
  RunControl control;
  EngineConfig ec = s.config();
  ec.verify.threads = 1;
  std::size_t calls = 0;
  ec.on_progress = [&](const EngineProgress& p) {
    ++calls;
    EXPECT_EQ(p.cells_done, p.cells_proved + p.cells_failed);
    if (p.cells_done >= 2) {
      control.request_stop();
    }
  };
  const EngineResult result = s.engine().run(cells, ec, &control);
  EXPECT_GE(calls, 2u);
  EXPECT_EQ(result.stop_reason, EngineStopReason::kStopped);
  EXPECT_GE(result.report.leaves.size(), 2u);
  EXPECT_FALSE(result.checkpoint.frontier.empty());
  EXPECT_EQ(result.report.leaves.size() + result.checkpoint.frontier.size(), cells.size());
}

TEST(Engine, ResumeValidatesCheckpoint) {
  EngineSetup s;
  const auto cells = mixed_cells(2);
  EngineCheckpoint wrong_partition;
  wrong_partition.root_cells = 99;
  EXPECT_THROW(s.engine().resume(cells, wrong_partition, s.config()), std::invalid_argument);

  EngineCheckpoint corrupt;
  corrupt.root_cells = cells.size();
  corrupt.frontier.push_back(VerifyJob{cells[0], 0, /*root_index=*/7});
  EXPECT_THROW(s.engine().resume(cells, corrupt, s.config()), std::invalid_argument);

  // Leaf and job depths outside 0..max_refinement_depth (a leaf's depth
  // indexes the report's proved_by_depth).
  const int max_depth = s.config().verify.max_refinement_depth;
  for (const int depth : {-1, max_depth + 1}) {
    EngineCheckpoint bad_leaf;
    bad_leaf.root_cells = cells.size();
    CellOutcome leaf;
    leaf.initial = cells[0];
    leaf.depth = depth;
    leaf.outcome = ReachOutcome::kProvedSafe;
    bad_leaf.leaves.push_back(leaf);
    EXPECT_THROW(s.engine().resume(cells, bad_leaf, s.config()), std::invalid_argument)
        << "leaf depth " << depth;
    EngineCheckpoint bad_job;
    bad_job.root_cells = cells.size();
    bad_job.frontier.push_back(VerifyJob{cells[0], depth, 0});
    EXPECT_THROW(s.engine().resume(cells, bad_job, s.config()), std::invalid_argument)
        << "job depth " << depth;
  }

  // Cells a run never makes: outside their root cell (wholly, in part, or
  // at an infinite bound) or under another command. Analyzing one, or
  // counting its leaf, would report coverage the partition does not hold.
  const double inf = std::numeric_limits<double>::infinity();
  SymbolicState outside = cells[0];
  outside.abstract = Box{Interval{9.0, 9.5}, Interval{-2.0, 2.0}};
  SymbolicState straddling = cells[0];
  straddling.abstract = Box{Interval{4.5, 5.5}, Interval{-2.0, 2.0}};
  SymbolicState infinite = cells[0];
  infinite.abstract = Box{Interval{inf, inf}, Interval{-2.0, 2.0}};
  SymbolicState other_command = cells[0];
  other_command.command = 1;
  for (const SymbolicState& cell : {outside, straddling, infinite, other_command}) {
    EngineCheckpoint bad_leaf;
    bad_leaf.root_cells = cells.size();
    CellOutcome leaf;
    leaf.initial = cell;
    leaf.outcome = ReachOutcome::kProvedSafe;
    bad_leaf.leaves.push_back(leaf);
    EXPECT_THROW(s.engine().resume(cells, bad_leaf, s.config()), std::invalid_argument)
        << "leaf " << cell.box();
    EngineCheckpoint bad_job;
    bad_job.root_cells = cells.size();
    bad_job.frontier.push_back(VerifyJob{cell, 0, 0});
    EXPECT_THROW(s.engine().resume(cells, bad_job, s.config()), std::invalid_argument)
        << "job " << cell.box();
  }

  // Cells of one root that overlap: a duplicated leaf would count its
  // coverage twice, and a frontier job over a finished leaf would verify
  // the same states again. The split dimension here is y (split_dims {1}).
  const auto [lower, upper] = cells[0].box().bisect(1);
  const auto leaf_of = [](const Box& box, int depth) {
    CellOutcome leaf;
    leaf.initial = SymbolicState{box, 0};
    leaf.depth = depth;
    leaf.outcome = ReachOutcome::kProvedSafe;
    return leaf;
  };
  EngineCheckpoint duplicate_leaf;
  duplicate_leaf.root_cells = cells.size();
  duplicate_leaf.leaves = {leaf_of(cells[0].box(), 0), leaf_of(cells[0].box(), 0)};
  EXPECT_THROW(s.engine().resume(cells, duplicate_leaf, s.config()), std::invalid_argument);
  EngineCheckpoint job_over_leaf;
  job_over_leaf.root_cells = cells.size();
  job_over_leaf.leaves = {leaf_of(lower, 1)};
  job_over_leaf.frontier = {VerifyJob{cells[0], 0, 0}};
  EXPECT_THROW(s.engine().resume(cells, job_over_leaf, s.config()), std::invalid_argument);
  // Cells that do not cover their roots: a root with no cell at all, and a
  // root that lists only one of its two bisection children. Either would
  // report the missing states as covered without ever verifying them.
  EngineCheckpoint missing_root;
  missing_root.root_cells = cells.size();
  missing_root.leaves = {leaf_of(lower, 1), leaf_of(upper, 1)};
  EXPECT_THROW(s.engine().resume(cells, missing_root, s.config()), std::invalid_argument);
  EngineCheckpoint missing_child;
  missing_child.root_cells = cells.size();
  missing_child.leaves = {leaf_of(lower, 1)};
  missing_child.frontier = {VerifyJob{cells[1], 0, 1}};
  EXPECT_THROW(s.engine().resume(cells, missing_child, s.config()), std::invalid_argument);
  // Bisection halves share only a face, and equal cells of different roots
  // never meet: both resume.
  EngineCheckpoint halves;
  halves.root_cells = cells.size();
  halves.leaves = {leaf_of(lower, 1)};
  halves.frontier = {VerifyJob{SymbolicState{upper, 0}, 1, 0}, VerifyJob{cells[1], 0, 1}};
  const EngineResult resumed = s.engine().resume(cells, halves, s.config());
  EXPECT_TRUE(resumed.complete());
}

TEST(Engine, WorkerExceptionReachesTheCaller) {
  // A cell whose command index is outside U makes reach_analyze throw on a
  // worker thread. The run must stop and hand the exception to the caller
  // instead of terminating the process. (`resume` refuses such a cell
  // before any worker starts, since it differs from its root cell.)
  EngineSetup s;
  auto cells = mixed_cells(4);
  cells[2].command = 99;
  EngineConfig ec = s.config();
  ec.verify.threads = 4;
  EXPECT_THROW((void)s.engine().run(cells, ec), std::invalid_argument);
}

TEST(Engine, RunControlStateMachine) {
  RunControl control;
  EXPECT_FALSE(control.stopped());
  control.set_time_budget(3600.0);
  EXPECT_FALSE(control.stopped());
  control.request_stop();
  EXPECT_TRUE(control.stopped());
}

TEST(Engine, RunControlSignalFlag) {
  static volatile std::sig_atomic_t flag = 0;
  flag = 0;
  RunControl control;
  control.bind_signal_flag(&flag);
  EXPECT_FALSE(control.stopped());
  flag = 1;
  EXPECT_TRUE(control.stopped());
}

}  // namespace
}  // namespace nncs
