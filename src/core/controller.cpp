#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "interval/rounding.hpp"
#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "obs/span.hpp"

namespace nncs {

namespace {

/// Domain tag for relational (zonotope-hull-keyed) cache entries. Distinct
/// from every NnDomain enumerator, so `find_exact` on a box query can never
/// replay a result that was only proved for one particular zonotope inside
/// that hull.
constexpr NnQueryCache::DomainTag kRelationalTag = 0x80;

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

/// True when the affine forms represent exactly their hull box: at most one
/// noise term per form and pairwise-distinct term symbols (the `AffineReuse`
/// precondition).
bool box_valid_inputs(const std::vector<Affine>& inputs) {
  std::vector<std::uint32_t> ids;
  for (const Affine& form : inputs) {
    if (form.terms().size() > 1) {
      return false;
    }
    if (!form.terms().empty()) {
      ids.push_back(form.terms().front().first);
    }
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

/// Substitute ε_id = m + w·ε_id (w >= 0) into `form` for every id in `sub`,
/// folding all rounding slack into the error term: the returned form over
/// ε ∈ [-1,1] covers the original form over the restricted ranges. Symbol
/// ids are preserved, so shared symbols still cancel in output differences.
Affine restrict_form(const Affine& form,
                     const std::unordered_map<std::uint32_t, std::pair<double, double>>& sub) {
  double center_lo = form.center();
  double center_hi = form.center();
  double err = form.error();
  std::vector<std::pair<std::uint32_t, double>> terms;
  terms.reserve(form.terms().size());
  for (const auto& term : form.terms()) {
    const auto it = sub.find(term.first);
    if (it == sub.end()) {
      terms.push_back(term);
      continue;
    }
    const double a = term.second;
    const double m = it->second.first;
    const double w = it->second.second;
    // center += a·m, tracked as an interval to absorb the rounding.
    const double p = a * m;
    center_lo = rnd::add_down(center_lo, rnd::next_down(p));
    center_hi = rnd::add_up(center_hi, rnd::next_up(p));
    // Coefficient a·w: the rounded product can be one step off; the defect
    // is bounded by next_up(|a·w|) - |a·w| and goes into err.
    const double c = a * w;
    if (c != 0.0) {
      terms.emplace_back(term.first, c);
      err = rnd::add_up(err, rnd::sub_up(rnd::next_up(std::fabs(c)), std::fabs(c)));
    } else if (a != 0.0 && w != 0.0) {
      err = rnd::add_up(err, rnd::next_up(0.0));  // whole product underflowed
    }
  }
  const double center = 0.5 * (center_lo + center_hi);
  err = rnd::add_up(err, std::max(rnd::sub_up(center_hi, center), rnd::sub_up(center, center_lo)));
  return Affine::from_parts(center, std::move(terms), err);
}

/// Restrict a cached box-valid propagation to a tighter query box. Null when
/// the query is not provably covered by the represented set (the cache key
/// is the outward-rounded hull, which can be strictly wider than the set
/// the cached forms actually parameterize).
std::optional<ZonotopeBounds> restrict_affine_reuse(const AffineReuse& base, const Box& query) {
  if (base.inputs.size() != query.dim()) {
    return std::nullopt;
  }
  std::unordered_map<std::uint32_t, std::pair<double, double>> sub;
  for (std::size_t d = 0; d < query.dim(); ++d) {
    const Affine& in = base.inputs[d];
    const double c = in.center();
    const double e = in.error();
    const double r = in.terms().empty() ? 0.0 : std::fabs(in.terms().front().second);
    // Representability: query_d must sit inside [c - r - e, c + r + e],
    // compared against inner bounds of that interval.
    if (query[d].lo() < rnd::sub_up(rnd::sub_up(c, r), e) ||
        query[d].hi() > rnd::add_down(rnd::add_down(c, r), e)) {
      return std::nullopt;
    }
    if (r == 0.0) {
      continue;  // constant dimension, nothing to restrict
    }
    // ε sub-range reproducing query_d: ((query_d + [-e, e]) - c) / coeff,
    // outward rounded, clamped to [-1, 1].
    const double coeff = in.terms().front().second;
    const Interval eps =
        (Interval{query[d].lo(), query[d].hi()} + Interval{-e, e} - Interval{c}) / Interval{coeff};
    const double lo = std::max(eps.lo(), -1.0);
    const double hi = std::min(eps.hi(), 1.0);
    if (lo > hi) {
      return std::nullopt;  // rounding artefact: no usable sub-range
    }
    if (lo <= -1.0 && hi >= 1.0) {
      continue;  // no tightening on this symbol
    }
    const double m = 0.5 * (lo + hi);
    const double w = std::max({rnd::sub_up(hi, m), rnd::sub_up(m, lo), 0.0});
    sub.emplace(in.terms().front().first, std::pair<double, double>{m, w});
  }
  ZonotopeBounds bounds;
  bounds.outputs.reserve(base.outputs.size());
  std::vector<Interval> dims;
  dims.reserve(base.outputs.size());
  for (const Affine& out : base.outputs) {
    bounds.outputs.push_back(sub.empty() ? out : restrict_form(out, sub));
    dims.push_back(bounds.outputs.back().range());
  }
  bounds.output_box = Box{std::move(dims)};
  return bounds;
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

bool NeuralController::reuse_cached(std::size_t net_id, NnQueryCache::DomainTag tag,
                                    AbstractControlStep& result) const {
  const Box& input = result.network_input;
  if (tag != kRelationalTag) {
    if (auto hit = cache_->find_exact(net_id, tag, input)) {
      // Exact match replays the propagation's own result.
      result.commands = std::move(hit->commands);
      result.network_output = std::move(hit->output_box);
      cache_->count_hit(/*containment=*/false);
      return true;
    }
  }
  // Containment reuse: bounds valid on a covering box stay valid on the
  // query box — for a relational query, on every zonotope inside its hull,
  // whose own correlations simply go unused. Symbolic bounds are
  // re-concretized on the query box (output box and the argmin's symbolic
  // differences); a box-valid affine propagation is restricted to the
  // query's noise-symbol sub-ranges (see restrict_affine_reuse).
  const NnQueryCache::Reuse reuse = cache_->find_containing(net_id, tag, input);
  bool attempted = false;
  std::vector<std::size_t> commands;
  Box output;
  if (const auto* symbolic = std::get_if<std::shared_ptr<const SymbolicBounds>>(&reuse)) {
    const SymbolicBounds reused{input, (*symbolic)->outputs,
                                concretize_output_box((*symbolic)->outputs, input)};
    commands = prune(reused);
    output = reused.output_box;
    attempted = true;
  } else if (const auto* affine = std::get_if<std::shared_ptr<const AffineReuse>>(&reuse)) {
    if (const std::optional<ZonotopeBounds> restricted =
            restrict_affine_reuse(**affine, input)) {
      commands = prune(*restricted);
      output = restricted->output_box;
      attempted = true;
    }
  }
  if (!attempted || commands.size() >= commands_.size()) {
    // Nothing to reuse, or the widened bounds pruned nothing: propagate from
    // scratch instead of accepting a worthless (though sound) full set.
    cache_->count_miss(/*after_reuse_attempt=*/attempted);
    return false;
  }
  result.commands = commands;
  result.network_output = output;
  cache_->count_hit(/*containment=*/true);
  // The new entry shares the covering payload: reuse re-derives everything
  // from the payload and the key box, so it stays valid for any later query
  // this tighter box contains.
  cache_->insert(net_id, tag, input,
                 NnQueryCache::Result{std::move(commands), std::move(output), reuse});
  return true;
}

std::vector<AbstractControlStep> NeuralController::step_abstract_batch(
    const std::vector<AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  if (states.size() != previous_commands.size()) {
    throw std::invalid_argument(
        "NeuralController::step_abstract_batch: states/commands size mismatch");
  }
  /// A query the cache did not answer. Its tag (relational, or the NN
  /// domain for box states) also selects the transformer.
  struct Miss {
    std::size_t index;
    std::size_t net_id;
    NnQueryCache::DomainTag tag;
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
    // Pre# and the cache consult, per state in order.
    misses.clear();
    for (std::size_t i = begin; i < std::min(n, begin + chunk); ++i) {
      if (previous_commands[i] >= commands_.size()) {
        throw std::out_of_range("NeuralController: bad previous command index");
      }
      const std::size_t net_id = selector_[previous_commands[i]];
      auto tag = static_cast<NnQueryCache::DomainTag>(domain_);
      if (states[i].has_relational()) {
        pre_images[i].emplace(pre_->eval_abstract(*states[i].relational()));
        results[i].network_input = pre_images[i]->concretize();
        tag = kRelationalTag;
      } else {
        results[i].network_input = pre_->eval_abstract(states[i].box());
      }
      if (!cache_ || !reuse_cached(net_id, tag, results[i])) {
        misses.push_back(Miss{i, net_id, tag});
      }
    }
    // One batched transformer call per (network, tag) group, in order of
    // first appearance.
    std::vector<bool> grouped(misses.size(), false);
    for (std::size_t m0 = 0; m0 < misses.size(); ++m0) {
      if (grouped[m0]) {
        continue;
      }
      const std::size_t net_id = misses[m0].net_id;
      const NnQueryCache::DomainTag tag = misses[m0].tag;
      std::vector<std::size_t> lanes;                          // state propagated per lane
      std::vector<std::pair<std::size_t, std::size_t>> twins;  // (state, lane state it copies)
      for (std::size_t m = m0; m < misses.size(); ++m) {
        if (grouped[m] || misses[m].net_id != net_id || misses[m].tag != tag) {
          continue;
        }
        grouped[m] = true;
        const std::size_t i = misses[m].index;
        // Equal box inputs share one propagation. Relational pre-images
        // never do: equal hulls do not imply equal zonotopes.
        const auto twin =
            tag == kRelationalTag
                ? lanes.end()
                : std::find_if(lanes.begin(), lanes.end(), [&](std::size_t k) {
                    return results[k].network_input == results[i].network_input;
                  });
        if (twin == lanes.end()) {
          lanes.push_back(i);
        } else {
          twins.emplace_back(i, *twin);
        }
      }
      const Network& net = networks_[net_id];
      std::vector<NnQueryCache::Reuse> reuse(lanes.size());
      if (tag == kRelationalTag) {
        std::vector<const AffineSet*> inputs;
        inputs.reserve(lanes.size());
        for (const std::size_t i : lanes) {
          inputs.push_back(&*pre_images[i]);
        }
        std::vector<ZonotopeBounds> all;
        {
          NNCS_SPAN("nn.zonotope");
          all = zonotope_propagate_batch(net, inputs);
        }
        NNCS_COUNT("nn.relational_steps", lanes.size());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          AbstractControlStep& result = results[lanes[k]];
          result.commands = prune(all[k]);
          result.network_output = std::move(all[k].output_box);
          // Only box-valid inputs are reusable (see AffineReuse): a general
          // zonotope's hull admits points the propagation never covered.
          if (cache_ && box_valid_inputs(inputs[k]->components())) {
            reuse[k] = std::make_shared<const AffineReuse>(
                AffineReuse{inputs[k]->components(), std::move(all[k].outputs)});
          }
        }
      } else if (domain_ == NnDomain::kSymbolic) {
        std::vector<Box> inputs;
        inputs.reserve(lanes.size());
        for (const std::size_t i : lanes) {
          inputs.push_back(results[i].network_input);
        }
        std::vector<SymbolicBounds> all = symbolic_propagate_batch(net, inputs);
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
          results[i].network_output = interval_propagate(net, results[i].network_input);
          results[i].commands = prune(results[i].network_output);
        }
      }
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        const AbstractControlStep& result = results[lanes[k]];
        // A relational entry without a payload could only serve exact
        // replay, which relational queries never use.
        const bool payload = !std::holds_alternative<std::monostate>(reuse[k]);
        if (cache_ && (payload || tag != kRelationalTag)) {
          cache_->insert(net_id, tag, result.network_input,
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
