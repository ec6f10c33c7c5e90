#include "core/reachability.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/stopwatch.hpp"

namespace nncs {

const char* to_string(LoopDomain domain) {
  switch (domain) {
    case LoopDomain::kBox:
      return "box";
    case LoopDomain::kZonotope:
      return "zonotope";
  }
  return "?";
}

const char* to_string(const DomainChoice& domain) {
  if (domain.loop == LoopDomain::kZonotope) {
    return "zonotope";
  }
  return domain.nn == NnDomain::kInterval ? "interval" : "symbolic";
}

std::optional<DomainChoice> parse_domain(std::string_view text) {
  for (const DomainChoice domain : {DomainChoice{LoopDomain::kBox, NnDomain::kInterval},
                                    DomainChoice{LoopDomain::kBox, NnDomain::kSymbolic},
                                    DomainChoice{LoopDomain::kZonotope, NnDomain::kSymbolic}}) {
    if (text == to_string(domain)) {
      return domain;
    }
  }
  return std::nullopt;
}

const char* to_string(ReachOutcome outcome) {
  switch (outcome) {
    case ReachOutcome::kProvedSafe:
      return "proved-safe";
    case ReachOutcome::kErrorReachable:
      return "error-reachable";
    case ReachOutcome::kHorizonExhausted:
      return "horizon-exhausted";
    case ReachOutcome::kEnclosureFailure:
      return "enclosure-failure";
    case ReachOutcome::kCancelled:
      return "cancelled";
  }
  return "?";
}

ReachStats& ReachStats::operator+=(const ReachStats& other) {
  steps_executed += other.steps_executed;
  joins += other.joins;
  max_states = std::max(max_states, other.max_states);
  total_simulations += other.total_simulations;
  seconds += other.seconds;
  phases += other.phases;
  return *this;
}

namespace {

void validate(const ClosedLoop& system, const SymbolicSet& initial, const ReachConfig& config) {
  if (system.plant == nullptr || system.controller == nullptr) {
    throw std::invalid_argument("reach_analyze: plant and controller must be set");
  }
  if (system.period <= 0.0) {
    throw std::invalid_argument("reach_analyze: period must be positive");
  }
  if (config.integrator == nullptr) {
    throw std::invalid_argument("reach_analyze: integrator must be set");
  }
  if (config.control_steps < 1 || config.integration_steps < 1) {
    throw std::invalid_argument("reach_analyze: control/integration steps must be >= 1");
  }
  if (initial.empty()) {
    throw std::invalid_argument("reach_analyze: empty initial symbolic set");
  }
  const std::size_t dim = system.plant->state_dim();
  const std::size_t num_commands = system.controller->commands().size();
  for (const auto& state : initial) {
    if (state.box().dim() != dim) {
      throw std::invalid_argument("reach_analyze: initial box dimension mismatch");
    }
    if (state.command >= num_commands) {
      throw std::invalid_argument("reach_analyze: initial command index out of range");
    }
  }
}

}  // namespace

ReachResult reach_analyze(const ClosedLoop& system, const SymbolicSet& initial,
                          const StateRegion& error, const StateRegion& target,
                          const ReachConfig& config, const RunControl* control) {
  validate(system, initial, config);
  Stopwatch watch;
  Stopwatch phase_watch;
  ReachResult result;
  PhaseBreakdown& phases = result.stats.phases;

  const bool zonotope = config.domain == LoopDomain::kZonotope;

  SymbolicSet current = initial;
  bool terminated = false;

  for (int j = 0; j < config.control_steps; ++j) {
    // Cancellation point: one poll per control step bounds the latency of a
    // stop/deadline by a single period's worth of work.
    if (control != nullptr && control->stopped()) {
      result.outcome = ReachOutcome::kCancelled;
      result.stats.steps_executed = j;
      result.stats.seconds = watch.seconds();
      return result;
    }
    // Algorithm 2: keep |R̃_j| <= Γ.
    phase_watch.reset();
    const ResizeStats rs = resize(current, config.gamma);
    phases.join_seconds += phase_watch.lap();
    result.stats.joins += rs.joins;
    result.stats.max_states = std::max(result.stats.max_states, current.size());
    if (config.record) {
      result.sampled_sets.push_back(current);
    }

    // Drop states absorbed by the target set (they are not propagated).
    phase_watch.reset();
    SymbolicSet active;
    active.reserve(current.size());
    for (const auto& state : current) {
      if (!target.certainly_contains(state.box(), state.command)) {
        active.push_back(state);
      }
    }
    phases.check_seconds += phase_watch.lap();
    if (active.empty()) {
      terminated = true;
      break;
    }

    SymbolicSet next;
    std::vector<Flowpipe> step_pipes;

    // One per-step body for both domains: three ordered sweeps. Sibling
    // cells reach the controller together so the NN transformer amortizes
    // one SoA kernel sweep over the batch; every per-state check, counter
    // and early return fires at the same point in state order as a scalar
    // loop would, and the batched controller step is bit-identical to
    // scalar stepping, so results cannot differ.

    // Sweep 1: discrete-instant check + validated simulation per state.
    std::vector<Flowpipe> pipes;
    std::vector<AbstractState> queries;
    pipes.reserve(active.size());
    queries.reserve(active.size());
    for (const auto& state : active) {
      // Unsound discrete-instant baseline: check E only at t = jT.
      phase_watch.reset();
      if (!config.check_intermediate &&
          error.possibly_intersects(state.box(), state.command)) {
        phases.check_seconds += phase_watch.lap();
        result.outcome = ReachOutcome::kErrorReachable;
        result.offending = state;
        result.offending_step = j;
        result.stats.steps_executed = j;
        result.stats.seconds = watch.seconds();
        return result;
      }
      phases.check_seconds += phase_watch.lap();
      // Algorithm 1: validated simulation over one control period, from
      // the state the controller samples at t = jT. The zonotope domain
      // lifts it once (reusing the relational part a previous step threaded
      // through, else re-lifting the box) and simulates that lift, so the
      // integrator's affine image keeps the step's noise symbols alive. The
      // boxed flowpipe view is what the error checks and recordings consume
      // in either domain.
      const Vec& command = system.controller->commands()[state.command];
      AbstractState query;
      Flowpipe pipe;
      if (zonotope) {
        query = AbstractState{state.box(), std::make_shared<AffineSet>(state.abstract.lift())};
        pipe = simulate(*system.plant, *config.integrator, *query.relational(), command,
                        system.period, config.integration_steps);
      } else {
        query = state.abstract;
        pipe = simulate(*system.plant, *config.integrator, query.box(), command, system.period,
                        config.integration_steps);
      }
      phases.simulate_seconds += phase_watch.lap();
      ++result.stats.total_simulations;
      if (!pipe.ok) {
        result.outcome = ReachOutcome::kEnclosureFailure;
        result.offending = state;
        result.offending_step = j;
        result.stats.steps_executed = j;
        result.stats.seconds = watch.seconds();
        return result;
      }
      // Check every intermediate enclosure against E (the sound mode; this
      // is what makes the analysis valid for all t, not just t = jT).
      if (config.check_intermediate) {
        for (const Box& segment : pipe.segments) {
          if (error.possibly_intersects(segment, state.command)) {
            phases.check_seconds += phase_watch.lap();
            result.outcome = ReachOutcome::kErrorReachable;
            result.offending = SymbolicState{segment, state.command};
            result.offending_step = j;
            result.stats.steps_executed = j;
            result.stats.seconds = watch.seconds();
            return result;
          }
        }
      }
      phases.check_seconds += phase_watch.lap();
      pipes.push_back(std::move(pipe));
      queries.push_back(std::move(query));
    }

    // Sweep 2: abstract controller execution on the *sampled* states at
    // t = jT (the command computed at step j is applied from (j+1)T on),
    // chunked to nn_batch. Relational queries feed the sampled affine set
    // straight into Pre# → F# → Post#, so the correlations the integrator
    // preserved prune commands a box sample could not.
    phase_watch.reset();
    std::vector<AbstractControlStep> ctrl_steps;
    ctrl_steps.reserve(active.size());
    std::vector<AbstractState> batch_states;
    std::vector<std::size_t> batch_commands;
    for (std::size_t begin = 0; begin < active.size(); begin += ReachConfig::nn_batch) {
      const std::size_t end = std::min(active.size(), begin + ReachConfig::nn_batch);
      batch_states.clear();
      batch_commands.clear();
      for (std::size_t k = begin; k < end; ++k) {
        batch_states.push_back(std::move(queries[k]));
        batch_commands.push_back(active[k].command);
      }
      std::vector<AbstractControlStep> chunk =
          system.controller->step_abstract_batch(batch_states, batch_commands);
      for (auto& step : chunk) {
        ctrl_steps.push_back(std::move(step));
      }
    }
    phases.controller_seconds += phase_watch.lap();

    // Sweep 3: successor states and flowpipe recording, in state order. A
    // zonotope successor carries the post-image alongside its (possibly
    // tighter) boxed view.
    for (std::size_t k = 0; k < active.size(); ++k) {
      const AbstractState successor{pipes[k].end, pipes[k].affine_end};
      for (const std::size_t cmd : ctrl_steps[k].commands) {
        next.push_back(SymbolicState{successor, cmd});
      }
      if (config.record) {
        step_pipes.push_back(std::move(pipes[k]));
      }
    }
    if (config.record) {
      result.flowpipes.push_back(std::move(step_pipes));
    }
    result.stats.steps_executed = j + 1;
    current = std::move(next);
  }

  if (!terminated) {
    // Horizon exhausted; the final sampled set may still be fully absorbed
    // by T (termination detected exactly at t = qT).
    if (config.record) {
      result.sampled_sets.push_back(current);
    }
    terminated = true;
    phase_watch.reset();
    for (const auto& state : current) {
      // The discrete-instant baseline must also check the final samples.
      if (!config.check_intermediate &&
          error.possibly_intersects(state.box(), state.command)) {
        phases.check_seconds += phase_watch.lap();
        result.outcome = ReachOutcome::kErrorReachable;
        result.offending = state;
        result.offending_step = config.control_steps;
        result.stats.seconds = watch.seconds();
        return result;
      }
      if (!target.certainly_contains(state.box(), state.command)) {
        terminated = false;
      }
    }
    phases.check_seconds += phase_watch.lap();
  }

  result.outcome = terminated ? ReachOutcome::kProvedSafe : ReachOutcome::kHorizonExhausted;
  result.stats.seconds = watch.seconds();
  return result;
}

}  // namespace nncs
