#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/abstract_state.hpp"
#include "interval/affine_set.hpp"
#include "interval/box.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"
#include "nn/query_cache.hpp"
#include "nn/symbolic_prop.hpp"
#include "nn/zonotope_prop.hpp"

namespace nncs {

/// The finite set U = {u^(1), ..., u^(P)} of possible actuation commands
/// (paper §4.1). Commands are addressed by index throughout the library.
class CommandSet {
 public:
  /// Each command is a d-dimensional vector; all must share the same d >= 1.
  explicit CommandSet(std::vector<Vec> commands);

  [[nodiscard]] std::size_t size() const { return commands_.size(); }
  [[nodiscard]] std::size_t dim() const { return commands_.front().size(); }
  [[nodiscard]] const Vec& operator[](std::size_t i) const { return commands_[i]; }

 private:
  std::vector<Vec> commands_;
};

/// Pre-processing stage Pre : R^l -> R^m of the controller (§4.3 (i)) with
/// its abstract transformer Pre# (sound on boxes).
class Preprocessor {
 public:
  virtual ~Preprocessor() = default;
  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;
  /// Concrete semantics.
  [[nodiscard]] virtual Vec eval(const Vec& state) const = 0;
  /// Abstract semantics: must over-approximate {eval(s) | s in box}.
  [[nodiscard]] virtual Box eval_abstract(const Box& state) const = 0;
  /// Relational abstract semantics over an affine set. The default
  /// concretizes, applies the boxed transformer and re-lifts — sound for
  /// any Pre, but correlations die at this stage. Pres that are affine maps
  /// (identity, per-dimension scaling/offset) should override with the
  /// exact image so the correlations reach the network.
  [[nodiscard]] virtual AffineSet eval_abstract(const AffineSet& state) const;
};

/// Identity pre-processing (the network reads the sampled state directly).
class IdentityPre final : public Preprocessor {
 public:
  explicit IdentityPre(std::size_t dim) : dim_(dim) {}
  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return dim_; }
  [[nodiscard]] Vec eval(const Vec& state) const override { return state; }
  [[nodiscard]] Box eval_abstract(const Box& state) const override { return state; }
  [[nodiscard]] AffineSet eval_abstract(const AffineSet& state) const override { return state; }

 private:
  std::size_t dim_;
};

/// Abstract domain of the network transformer F# on box queries.
/// Relational queries (the zonotope loop domain) always take the zonotope
/// transformer, affine arithmetic after Stolfi & Figueiredo [15].
enum class NnDomain {
  kInterval,  ///< rigorous outward-rounded interval propagation
  kSymbolic,  ///< affine-bound propagation (ReluVal/DeepPoly family)
};

/// One abstract controller execution: the reachable command indices plus
/// the intermediate enclosures (useful for diagnostics and tests).
struct AbstractControlStep {
  std::vector<std::size_t> commands;
  Box network_input;
  Box network_output;
};

/// Abstract discrete-time controller: everything the closed-loop machinery
/// needs from N — the finite command set and the concrete/abstract control
/// step. `NeuralController` is the paper's §4.3 instance; `ProductController`
/// composes several controllers for the multi-agent extension of §8.
class Controller {
 public:
  virtual ~Controller() = default;
  [[nodiscard]] virtual const CommandSet& commands() const = 0;
  /// Plant-state dimension the controller samples.
  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  /// Concrete control step: sampled state + previous command -> next command.
  [[nodiscard]] virtual std::size_t step(const Vec& state,
                                         std::size_t previous_command) const = 0;
  /// Abstract control step: sound over-approximation of every command the
  /// controller can produce from any state in the box.
  [[nodiscard]] virtual AbstractControlStep step_abstract(
      const Box& state, std::size_t previous_command) const = 0;
  /// Relational abstract control step over an affine set. The default boxes
  /// the set and delegates to `step_abstract` (sound for any controller);
  /// `NeuralController` overrides it to thread the affine forms through
  /// Pre# and the zonotope network transformer without intermediate boxing.
  [[nodiscard]] virtual AbstractControlStep step_abstract_relational(
      const AffineSet& state, std::size_t previous_command) const {
    return step_abstract(state.concretize(), previous_command);
  }
  /// Batched abstract control step over abstract states: element i of the
  /// result must equal `step_abstract_relational(states[i].lift(), ...)`
  /// when `states[i].has_relational()` and `step_abstract(states[i].box(),
  /// ...)` otherwise. The default loops the scalar steps; `NeuralController`
  /// implements it once, sending sibling cells through one symbolic or
  /// zonotope SoA kernel sweep per network (`nn/kernels.hpp`), and makes its
  /// scalar steps batches of one.
  [[nodiscard]] virtual std::vector<AbstractControlStep> step_abstract_batch(
      const std::vector<AbstractState>& states,
      const std::vector<std::size_t>& previous_commands) const;
};

/// The generic neural network based controller N of §4.3 (Fig 2/5):
/// a collection of ReLU networks, a selector λ mapping the previous command
/// to the network to execute, a pre-processing stage, and the paper's argmin
/// post-processing (score k minimal => command k, first-index tie-break;
/// network output p == |U|). Provides both the concrete semantics (for
/// simulation) and the abstract semantics Pre# ∘ F# ∘ Post# (for
/// reachability), where Post# is `possible_argmin` on the transformer's
/// bounds.
class NeuralController final : public Controller {
 public:
  /// `selector[c]` is the index into `networks` of the network executed when
  /// the previous command was c (the λ map). Throws if shapes disagree
  /// (network input dim vs Pre output dim, selector size vs |U|, ...).
  /// Packs every network once for the batched transformers.
  NeuralController(CommandSet commands, std::vector<Network> networks,
                   std::vector<std::size_t> selector, std::unique_ptr<Preprocessor> pre,
                   NnDomain domain = NnDomain::kSymbolic, NnCacheConfig cache = {});

  [[nodiscard]] const CommandSet& commands() const override { return commands_; }
  [[nodiscard]] const std::vector<Network>& networks() const { return networks_; }
  [[nodiscard]] std::size_t state_dim() const override { return pre_->input_dim(); }

  /// Replace the NN query cache (drops any cached state). Not thread-safe
  /// against in-flight step_abstract calls — reconfigure before analysis
  /// starts. `NnCacheMode::kOff` removes the cache entirely.
  void configure_cache(const NnCacheConfig& cache);

  /// The active cache, or nullptr when mode is off.
  [[nodiscard]] const NnQueryCache* query_cache() const { return cache_.get(); }

  /// Concrete control step j: sampled state -> next command index
  /// (u_{j+1} = Post(F_{λ(u_j)}(Pre(s_j)))).
  [[nodiscard]] std::size_t step(const Vec& state, std::size_t previous_command) const override;

  /// Batch of one through `step_abstract_batch`.
  [[nodiscard]] AbstractControlStep step_abstract(const Box& state,
                                                  std::size_t previous_command) const override;

  /// Batch of one through `step_abstract_batch`: the pre-image keeps the
  /// state's noise symbols, the zonotope transformer consumes the affine
  /// forms directly and the argmin post-processor prunes on the relational
  /// output differences.
  [[nodiscard]] AbstractControlStep step_abstract_relational(
      const AffineSet& state, std::size_t previous_command) const override;

  /// The one implementation of Pre# → F#_λ(u) → Post#. Pre# runs per state
  /// (on the affine pre-image for relational states), then the cache is
  /// consulted per box state; relational states bypass the cache, so they
  /// are never looked up or inserted. Remaining misses are grouped by
  /// selected network and transformer, equal box inputs are propagated
  /// once, and each group gets one transformer call followed by Post# (and,
  /// for box states with a cache, the insert). Relational states go through
  /// the batched zonotope transformer; box states through the batched
  /// symbolic one, or lane by lane through the scalar interval one. Both
  /// batched transformers sweep the network's pack from construction, which
  /// concurrent calls share read-only, and replicate the scalar rounding
  /// sequence per lane, so every result is bit-identical to the scalar
  /// transformer's.
  /// Containment reuse is query-order-dependent (a step may insert the
  /// entry a later query reuses), so with a cache the states run through
  /// this body one at a time.
  [[nodiscard]] std::vector<AbstractControlStep> step_abstract_batch(
      const std::vector<AbstractState>& states,
      const std::vector<std::size_t>& previous_commands) const override;

 private:
  /// Containment-mode consult for one box query: exact replay, else reuse
  /// of a covering entry's symbolic bounds when they still prune a command.
  /// Fills commands/network_output on a hit.
  [[nodiscard]] bool reuse_cached(std::size_t net_id, AbstractControlStep& result) const;

  CommandSet commands_;
  std::vector<Network> networks_;
  /// `networks_[i]` packed for the batched transformers (read-only).
  std::vector<kern::PackedNetwork> packed_;
  std::vector<std::size_t> selector_;
  std::unique_ptr<Preprocessor> pre_;
  NnDomain domain_;
  /// Shared across the analysis threads of a run; mutated from const
  /// step_abstract_batch (the cache is internally synchronized).
  std::unique_ptr<NnQueryCache> cache_;
};

}  // namespace nncs
