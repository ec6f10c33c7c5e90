#include "core/controller.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "obs/span.hpp"

namespace nncs {

namespace {

/// Post# sanity checks.
void validate_commands(const AbstractControlStep& result, std::size_t command_count) {
  if (result.commands.empty()) {
    throw std::logic_error(
        "NeuralController: Post# returned no commands (unsound abstract post-processor)");
  }
  for (const std::size_t c : result.commands) {
    if (c >= command_count) {
      throw std::logic_error("NeuralController: Post# returned out-of-range command");
    }
  }
}

/// Post# (argmin) on one transformer result, timed as the argmin layer.
template <class Bounds>
std::vector<std::size_t> prune(const Bounds& bounds) {
  NNCS_SPAN("nn.argmin");
  return possible_argmin(bounds);
}

}  // namespace

CommandSet::CommandSet(std::vector<Vec> commands) : commands_(std::move(commands)) {
  if (commands_.empty()) {
    throw std::invalid_argument("CommandSet: at least one command required");
  }
  const std::size_t d = commands_.front().size();
  if (d == 0) {
    throw std::invalid_argument("CommandSet: commands must be non-empty vectors");
  }
  for (const auto& u : commands_) {
    if (u.size() != d) {
      throw std::invalid_argument("CommandSet: inconsistent command dimensions");
    }
  }
}

AffineSet Preprocessor::eval_abstract(const AffineSet& state) const {
  return AffineSet::from_box(eval_abstract(state.concretize()));
}

std::vector<AbstractControlStep> Controller::step_abstract_batch(
    const std::vector<AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  if (states.size() != previous_commands.size()) {
    throw std::invalid_argument("Controller::step_abstract_batch: states/commands size mismatch");
  }
  std::vector<AbstractControlStep> results;
  results.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    results.push_back(states[i].has_relational()
                          ? step_abstract_relational(*states[i].relational(), previous_commands[i])
                          : step_abstract(states[i].box(), previous_commands[i]));
  }
  return results;
}

NeuralController::NeuralController(CommandSet commands, std::vector<Network> networks,
                                   std::vector<std::size_t> selector,
                                   std::unique_ptr<Preprocessor> pre, NnDomain domain,
                                   NnCacheConfig cache)
    : commands_(std::move(commands)),
      networks_(std::move(networks)),
      selector_(std::move(selector)),
      pre_(std::move(pre)),
      domain_(domain) {
  configure_cache(cache);
  if (networks_.empty()) {
    throw std::invalid_argument("NeuralController: at least one network required");
  }
  if (!pre_) {
    throw std::invalid_argument("NeuralController: pre-processor must be non-null");
  }
  if (selector_.size() != commands_.size()) {
    throw std::invalid_argument("NeuralController: selector size must equal |U| (one network choice per previous command)");
  }
  for (const std::size_t net_idx : selector_) {
    if (net_idx >= networks_.size()) {
      throw std::invalid_argument("NeuralController: selector references network " +
                                  std::to_string(net_idx) + " out of range");
    }
  }
  for (const auto& net : networks_) {
    if (net.input_dim() != pre_->output_dim()) {
      throw std::invalid_argument("NeuralController: network input dim != Pre output dim");
    }
    packed_.push_back(kern::pack_network(net));
  }
}

std::size_t NeuralController::step(const Vec& state, std::size_t previous_command) const {
  if (previous_command >= commands_.size()) {
    throw std::out_of_range("NeuralController::step: bad previous command index");
  }
  const Network& net = networks_[selector_[previous_command]];
  const Vec x = pre_->eval(state);
  const Vec y = net.eval(x);
  const std::size_t next = concrete_argmin(y);
  if (next >= commands_.size()) {
    throw std::logic_error("NeuralController::step: Post returned out-of-range command");
  }
  return next;
}

void NeuralController::configure_cache(const NnCacheConfig& cache) {
  cache_ = cache.enabled() ? std::make_unique<NnQueryCache>(cache) : nullptr;
}

AbstractControlStep NeuralController::step_abstract(const Box& state,
                                                    std::size_t previous_command) const {
  return std::move(step_abstract_batch({AbstractState{state}}, {previous_command}).front());
}

AbstractControlStep NeuralController::step_abstract_relational(
    const AffineSet& state, std::size_t previous_command) const {
  const AbstractState query{state.concretize(), std::make_shared<const AffineSet>(state)};
  return std::move(step_abstract_batch({query}, {previous_command}).front());
}

bool NeuralController::reuse_cached(std::size_t net_id, AbstractControlStep& result) const {
  const auto tag = static_cast<NnQueryCache::DomainTag>(domain_);
  const Box& input = result.network_input;
  if (auto hit = cache_->find_exact(net_id, tag, input)) {
    // Exact match replays the propagation's own result.
    result.commands = std::move(hit->commands);
    result.network_output = std::move(hit->output_box);
    cache_->count_hit(/*containment=*/false);
    return true;
  }
  // Containment reuse: symbolic bounds valid on a covering box stay valid on
  // the query box, so they are re-concretized there (output box and the
  // argmin's symbolic differences).
  const NnQueryCache::Reuse reuse = cache_->find_containing(net_id, tag, input);
  if (!reuse) {
    cache_->count_miss(/*after_reuse_attempt=*/false);
    return false;
  }
  const SymbolicBounds reused{input, reuse->outputs,
                              concretize_output_box(reuse->outputs, input)};
  std::vector<std::size_t> commands = prune(reused);
  if (commands.size() >= commands_.size()) {
    // The widened bounds pruned nothing: propagate from scratch instead of
    // accepting a worthless (though sound) full set.
    cache_->count_miss(/*after_reuse_attempt=*/true);
    return false;
  }
  result.commands = commands;
  result.network_output = reused.output_box;
  cache_->count_hit(/*containment=*/true);
  // The new entry shares the covering payload: reuse re-derives everything
  // from the payload and the key box, so it stays valid for any later query
  // this tighter box contains.
  cache_->insert(net_id, tag, input,
                 NnQueryCache::Result{std::move(commands), reused.output_box, reuse});
  return true;
}

std::vector<AbstractControlStep> NeuralController::step_abstract_batch(
    const std::vector<AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  if (states.size() != previous_commands.size()) {
    throw std::invalid_argument(
        "NeuralController::step_abstract_batch: states/commands size mismatch");
  }
  /// A query the cache did not answer, or a relational one it never sees.
  /// `relational` also selects the transformer.
  struct Miss {
    std::size_t index;
    std::size_t net_id;
    bool relational;
  };
  const std::size_t n = states.size();
  std::vector<AbstractControlStep> results(n);
  std::vector<std::optional<AffineSet>> pre_images(n);
  std::vector<Miss> misses;
  // Containment reuse is query-order-dependent — a step may insert the
  // entry a later query reuses — so with a cache the states run one at a
  // time.
  const std::size_t chunk = cache_ ? 1 : n;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    // Pre# and the cache consult, per state in order. Relational states
    // bypass the cache.
    misses.clear();
    for (std::size_t i = begin; i < std::min(n, begin + chunk); ++i) {
      if (previous_commands[i] >= commands_.size()) {
        throw std::out_of_range("NeuralController: bad previous command index");
      }
      const std::size_t net_id = selector_[previous_commands[i]];
      const bool relational = states[i].has_relational();
      if (relational) {
        pre_images[i].emplace(pre_->eval_abstract(*states[i].relational()));
        results[i].network_input = pre_images[i]->concretize();
      } else {
        results[i].network_input = pre_->eval_abstract(states[i].box());
      }
      if (relational || !cache_ || !reuse_cached(net_id, results[i])) {
        misses.push_back(Miss{i, net_id, relational});
      }
    }
    // One batched transformer call per (network, transformer) group, in
    // order of first appearance.
    std::vector<bool> grouped(misses.size(), false);
    for (std::size_t m0 = 0; m0 < misses.size(); ++m0) {
      if (grouped[m0]) {
        continue;
      }
      const std::size_t net_id = misses[m0].net_id;
      const bool relational = misses[m0].relational;
      std::vector<std::size_t> lanes;                          // state propagated per lane
      std::vector<std::pair<std::size_t, std::size_t>> twins;  // (state, lane state it copies)
      for (std::size_t m = m0; m < misses.size(); ++m) {
        if (grouped[m] || misses[m].net_id != net_id || misses[m].relational != relational) {
          continue;
        }
        grouped[m] = true;
        const std::size_t i = misses[m].index;
        // Equal box inputs share one propagation. Relational pre-images
        // never do: equal hulls do not imply equal zonotopes.
        const auto twin =
            relational ? lanes.end()
                       : std::find_if(lanes.begin(), lanes.end(), [&](std::size_t k) {
                           return results[k].network_input == results[i].network_input;
                         });
        if (twin == lanes.end()) {
          lanes.push_back(i);
        } else {
          twins.emplace_back(i, *twin);
        }
      }
      const kern::PackedNetwork& packed = packed_[net_id];
      std::vector<NnQueryCache::Reuse> reuse(lanes.size());
      if (relational) {
        std::vector<const AffineSet*> inputs;
        inputs.reserve(lanes.size());
        for (const std::size_t i : lanes) {
          inputs.push_back(&*pre_images[i]);
        }
        std::vector<ZonotopeBounds> all;
        {
          NNCS_SPAN("nn.zonotope");
          all = zonotope_propagate_batch(packed, inputs);
        }
        NNCS_COUNT("nn.relational_steps", lanes.size());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          AbstractControlStep& result = results[lanes[k]];
          result.commands = prune(all[k]);
          result.network_output = std::move(all[k].output_box);
        }
      } else if (domain_ == NnDomain::kSymbolic) {
        std::vector<Box> inputs;
        inputs.reserve(lanes.size());
        for (const std::size_t i : lanes) {
          inputs.push_back(results[i].network_input);
        }
        std::vector<SymbolicBounds> all = symbolic_propagate_batch(packed, inputs);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          AbstractControlStep& result = results[lanes[k]];
          result.commands = prune(all[k]);
          result.network_output = all[k].output_box;
          if (cache_) {
            reuse[k] = std::make_shared<const SymbolicBounds>(std::move(all[k]));
          }
        }
      } else {
        // The interval F# is the ablation baseline no workload batches: its
        // lanes run the scalar transformer one by one.
        for (const std::size_t i : lanes) {
          results[i].network_output =
              interval_propagate(networks_[net_id], results[i].network_input);
          results[i].commands = prune(results[i].network_output);
        }
      }
      if (cache_ && !relational) {
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          const AbstractControlStep& result = results[lanes[k]];
          cache_->insert(net_id, static_cast<NnQueryCache::DomainTag>(domain_),
                         result.network_input,
                         NnQueryCache::Result{result.commands, result.network_output,
                                              std::move(reuse[k])});
        }
      }
      for (const auto& [i, lane] : twins) {
        results[i].commands = results[lane].commands;
        results[i].network_output = results[lane].network_output;
      }
    }
  }
  for (const AbstractControlStep& result : results) {
    validate_commands(result, commands_.size());
  }
  return results;
}

}  // namespace nncs
