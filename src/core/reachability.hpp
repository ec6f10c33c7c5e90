#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "core/run_control.hpp"
#include "core/specs.hpp"
#include "core/symbolic_state.hpp"
#include "ode/dynamics.hpp"
#include "ode/validated_integrator.hpp"

namespace nncs {

/// The closed-loop system C = (P, N) of §4.1: a continuous-time plant, a
/// discrete-time neural network controller executed with period T, coupled
/// by sampler and zero-order hold. Non-owning view — the referenced objects
/// must outlive it.
struct ClosedLoop {
  const Dynamics* plant = nullptr;
  const Controller* controller = nullptr;
  /// Controller period T in seconds.
  double period = 1.0;
};

/// Abstract domain threaded through the closed loop, i.e. the shape of the
/// set representation handed from the integrator's post-image to the next
/// control step.
enum class LoopDomain {
  /// Boxes everywhere (the paper's Algorithm 3): each control step samples
  /// an interval hull, so variable correlations die at every hand-off.
  kBox,
  /// Affine sets end to end: the validated integrator's linear-part image
  /// keeps the step's noise symbols alive, the controller consumes them via
  /// the zonotope network transformer (Pre# → NN → Post# without
  /// intermediate boxing) and the post-image seeds the next step. Error and
  /// target membership are still decided on the concretized boxes — the
  /// relational form only tightens them.
  kZonotope,
};

[[nodiscard]] const char* to_string(LoopDomain domain);

/// The drivers' one abstract-domain axis (`--domain`): the loop domain and
/// the network transformer its box queries take.
struct DomainChoice {
  LoopDomain loop = LoopDomain::kBox;
  NnDomain nn = NnDomain::kSymbolic;
};

/// "interval" and "symbolic" run the box loop with that network
/// transformer; "zonotope" runs the relational loop, whose every query
/// takes the zonotope transformer (`nn` keeps its unused default).
[[nodiscard]] const char* to_string(const DomainChoice& domain);

/// Inverse of `to_string`; nullopt on anything else.
[[nodiscard]] std::optional<DomainChoice> parse_domain(std::string_view text);

/// Parameters of the reachability procedure (Algorithm 3).
struct ReachConfig {
  /// Number of control steps q (time horizon τ = q·T).
  int control_steps = 20;
  /// Validated integration steps per control period (the M of §6.4,
  /// "Improving precision").
  int integration_steps = 10;
  /// Symbolic-set size threshold Γ of Algorithm 2 ("Improving time
  /// complexity"); must be >= 1. A Γ below the number of distinct commands
  /// in a set is allowed: `resize` stops at that number (Remark 3), so the
  /// set keeps one state per command.
  std::size_t gamma = 5;
  /// Validated one-step integrator; must be non-null.
  const ValidatedIntegrator* integrator = nullptr;
  /// When false, the error set is only checked at the sampling instants
  /// t = jT — this reproduces the *unsound* discrete-instant baseline of
  /// [7] (experiment A6) and must never be used for real verification.
  bool check_intermediate = true;
  /// NN query cache policy for the abstract controller steps. The cache
  /// itself lives on the `NeuralController` (drivers apply this config via
  /// `configure_cache` before analysis); carried here so a driver holding
  /// only the config can apply it. It serves the box loop's queries only:
  /// the zonotope loop's relational queries bypass it.
  NnCacheConfig nn_cache;
  /// Record the run in `ReachResult::sampled_sets` and `flowpipes`
  /// (memory-heavy; for plots and tests). Off, both stay empty.
  bool record = false;
  /// Abstract controller steps per batched call, in both loop domains: up
  /// to this many sibling states go to `Controller::step_abstract_batch` in
  /// one SoA kernel sweep. Results are bit-identical at any width (see
  /// `NeuralController::step_abstract_batch`), so the width only sets speed;
  /// on ACAS Xu zonotope runs 8 beat passing the whole active set at once.
  static constexpr std::size_t nn_batch = 8;
  /// Set representation threaded between integrator and controller.
  /// `kBox` reproduces the original pipeline bit for bit; `kZonotope`
  /// carries affine sets across the loop.
  LoopDomain domain = LoopDomain::kBox;
};

/// Verdict of one reachability analysis.
enum class ReachOutcome {
  /// R̃ ∩ E = ∅ and the system provably terminated (every symbolic state
  /// entered T): the cell is verified safe until termination.
  kProvedSafe,
  /// Some enclosure intersected E — the proof fails (the over-approximation
  /// may or may not contain a real violation).
  kErrorReachable,
  /// No error found but termination was not established within q steps.
  kHorizonExhausted,
  /// Validated simulation could not produce an enclosure.
  kEnclosureFailure,
  /// The analysis was cut short by its RunControl (stop request, SIGINT or
  /// deadline) before reaching a verdict. Not a terminal verdict: the cell
  /// goes back to the engine's frontier and is re-analyzed on resume.
  kCancelled,
};

[[nodiscard]] const char* to_string(ReachOutcome outcome);

/// Where the wall time of one reach_analyze() went, phase by phase. The
/// phases tile the analysis loop (consecutive Stopwatch laps), so their sum
/// accounts for essentially all of `ReachStats::seconds`.
struct PhaseBreakdown {
  /// Algorithm 1: validated plant simulation (Picard + Taylor tightening).
  double simulate_seconds = 0.0;
  /// Abstract controller stepping (Pre# ∘ F# ∘ Post#).
  double controller_seconds = 0.0;
  /// Algorithm 2: the Γ-join resize of the symbolic set.
  double join_seconds = 0.0;
  /// Error/target membership checks and set bookkeeping.
  double check_seconds = 0.0;

  [[nodiscard]] double total() const {
    return simulate_seconds + controller_seconds + join_seconds + check_seconds;
  }

  PhaseBreakdown& operator+=(const PhaseBreakdown& other) {
    simulate_seconds += other.simulate_seconds;
    controller_seconds += other.controller_seconds;
    join_seconds += other.join_seconds;
    check_seconds += other.check_seconds;
    return *this;
  }
};

struct ReachStats {
  int steps_executed = 0;
  std::size_t joins = 0;
  std::size_t max_states = 0;
  std::size_t total_simulations = 0;
  double seconds = 0.0;
  PhaseBreakdown phases;

  /// Fold `other` in: counters and seconds sum, `max_states` takes the max.
  ReachStats& operator+=(const ReachStats& other);
};

struct ReachResult {
  ReachOutcome outcome = ReachOutcome::kHorizonExhausted;
  ReachStats stats;
  /// Sampled-instant symbolic sets R̃_0, R̃_1, ..., up to the last executed
  /// step (after resize, before propagation). Only filled under
  /// `ReachConfig::record`.
  std::vector<SymbolicSet> sampled_sets;
  /// Per step, per propagated symbolic state: the validated flowpipe. Only
  /// filled under `ReachConfig::record`.
  std::vector<std::vector<Flowpipe>> flowpipes;
  /// For kErrorReachable: the symbolic state whose enclosure met E, and the
  /// control step at which it happened.
  std::optional<SymbolicState> offending;
  int offending_step = -1;
};

/// Algorithm 3: iteratively build R̃_{[0,τ]} from the initial symbolic set,
/// alternating validated simulation of the plant (Algorithm 1) with the
/// abstract controller step, joining states beyond Γ (Algorithm 2),
/// dropping states absorbed by the target set and checking every enclosure
/// against the error set.
///
/// When `control` is non-null it is polled between control steps; a stopped
/// control cuts the analysis short with `kCancelled` (partial stats filled,
/// no verdict).
ReachResult reach_analyze(const ClosedLoop& system, const SymbolicSet& initial,
                          const StateRegion& error, const StateRegion& target,
                          const ReachConfig& config, const RunControl* control = nullptr);

}  // namespace nncs
