#include "nn/zonotope_prop.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"

namespace nncs {

ZonotopeBounds zonotope_propagate(const Network& net, const Box& input) {
  if (input.dim() != net.input_dim()) {
    throw std::invalid_argument("zonotope_propagate: input dimension mismatch");
  }
  NoiseSource source;
  std::vector<Affine> current;
  current.reserve(input.dim());
  for (std::size_t i = 0; i < input.dim(); ++i) {
    current.push_back(Affine::variable(input[i].lo(), input[i].hi(), source));
  }
  return zonotope_propagate(net, std::move(current), source);
}

ZonotopeBounds zonotope_propagate(const Network& net, std::vector<Affine> inputs,
                                  NoiseSource& source) {
  if (inputs.size() != net.input_dim()) {
    throw std::invalid_argument("zonotope_propagate: input dimension mismatch");
  }
  std::vector<Affine> current = std::move(inputs);

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const Layer& layer = net.layers()[li];
    const bool is_output = li + 1 == net.num_layers();
    std::vector<Affine> next;
    next.reserve(layer.weights.rows());
    for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
      Affine acc{layer.biases[r]};
      for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
        const double w = layer.weights(r, c);
        if (w != 0.0) {
          acc += w * current[c];
        }
      }
      next.push_back(is_output ? std::move(acc) : acc.relu(source));
    }
    current = std::move(next);
  }

  ZonotopeBounds result;
  std::vector<Interval> dims;
  dims.reserve(current.size());
  for (const auto& a : current) {
    dims.push_back(a.range());
  }
  result.outputs = std::move(current);
  result.output_box = Box{std::move(dims)};
  return result;
}

namespace {

constexpr std::uint32_t kNoSymbol = 0xffffffffu;
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Per-lane view of the shared slot layout: which noise-symbol id each slot
/// column holds for this lane (kNoSymbol where the column belongs to other
/// lanes only), plus the lane's replayed NoiseSource position. Non-sentinel
/// ids are strictly increasing in slot order — input ids are scattered
/// sorted and every fresh ReLU id exceeds all ids the lane allocated before
/// it — which makes extraction yield sorted term lists for free.
struct LaneSymbols {
  std::vector<std::uint32_t> slot_ids;
  std::uint32_t next_fresh = 0;
};

/// Rebuild lane `l`'s form `f` as a scalar Affine (sorted sparse terms).
/// Sound to skip zero slots: a slot is 0.0 exactly when the scalar form has
/// no such term (acc slots never hold -0.0 — see kern::AffineFormBatch).
Affine extract_lane(const kern::AffineFormBatch& batch, std::size_t f, std::size_t l,
                    const LaneSymbols& lane) {
  const double* row = batch.form_coeffs(f);
  std::vector<std::pair<std::uint32_t, double>> terms;
  for (std::size_t s = 0; s < batch.n_slots; ++s) {
    if (lane.slot_ids[s] == kNoSymbol) {
      continue;
    }
    const double v = row[s * batch.lanes + l];
    if (v != 0.0) {
      terms.emplace_back(lane.slot_ids[s], v);
    }
  }
  return Affine::from_parts(batch.center[f * batch.lanes + l], std::move(terms),
                            batch.err[f * batch.lanes + l]);
}

/// Append a zeroed slot column (capacity is preallocated) and a sentinel
/// entry to every lane's map.
std::size_t append_slot(kern::AffineFormBatch& batch, std::vector<LaneSymbols>& lanes_sym) {
  const std::size_t s = batch.n_slots;
  for (std::size_t f = 0; f < batch.width; ++f) {
    double* col = batch.form_coeffs(f) + s * batch.lanes;
    for (std::size_t l = 0; l < batch.lanes; ++l) {
      col[l] = 0.0;
    }
  }
  ++batch.n_slots;
  for (auto& lane : lanes_sym) {
    lane.slot_ids.push_back(kNoSymbol);
  }
  return s;
}

/// Write `form` into lane `l`'s slot row for form `f` (zeros elsewhere).
/// Two-pointer walk: term ids and non-sentinel slot ids are both ascending.
void scatter_lane(kern::AffineFormBatch& batch, std::size_t f, std::size_t l,
                  const LaneSymbols& lane, const Affine& form) {
  double* row = batch.form_coeffs(f);
  for (std::size_t s = 0; s < batch.n_slots; ++s) {
    row[s * batch.lanes + l] = 0.0;
  }
  std::size_t s = 0;
  for (const auto& [id, v] : form.terms()) {
    while (s < batch.n_slots && lane.slot_ids[s] != id) {
      ++s;
    }
    if (s >= batch.n_slots) {
      throw std::logic_error("zonotope_propagate_batch: term id without a slot");
    }
    row[s * batch.lanes + l] = v;
    ++s;
  }
  batch.center[f * batch.lanes + l] = form.center();
  batch.err[f * batch.lanes + l] = form.error();
}

/// Scalar-exact ReLU over the batch: each lane is extracted, run through
/// `Affine::relu` (the very code the scalar propagator executes), and
/// scattered back. All unstable lanes of one row share one appended slot
/// column; each keeps its own fresh symbol id in its map, exactly replaying
/// the scalar per-state NoiseSource.
void relu_stage(kern::AffineFormBatch& cur, std::vector<LaneSymbols>& lanes_sym) {
  const std::size_t lanes = cur.lanes;
  for (std::size_t r = 0; r < cur.width; ++r) {
    std::size_t fresh_slot = kNoSlot;
    for (std::size_t l = 0; l < lanes; ++l) {
      const Affine form = extract_lane(cur, r, l, lanes_sym[l]);
      const Interval range = form.range();
      if (range.lo() >= 0.0) {
        continue;  // scalar relu returns *this — the batch already holds it
      }
      if (range.hi() <= 0.0) {
        double* row = cur.form_coeffs(r);
        for (std::size_t s = 0; s < cur.n_slots; ++s) {
          row[s * lanes + l] = 0.0;
        }
        cur.center[r * lanes + l] = 0.0;
        cur.err[r * lanes + l] = 0.0;
        continue;
      }
      const std::uint32_t fresh_id = lanes_sym[l].next_fresh;
      NoiseSource src{fresh_id};
      const Affine out = form.relu(src);
      lanes_sym[l].next_fresh = src.count();
      if (fresh_slot == kNoSlot) {
        fresh_slot = append_slot(cur, lanes_sym);
      }
      lanes_sym[l].slot_ids[fresh_slot] = fresh_id;
      scatter_lane(cur, r, l, lanes_sym[l], out);
    }
  }
}

/// Propagate one chunk (<= kern::kMaxLanes lanes): lane l starts from
/// `sets[l]`'s forms at its NoiseSource position.
std::vector<ZonotopeBounds> propagate_chunk(const Network& net,
                                            std::span<const AffineSet* const> sets,
                                            kern::Isa isa) {
  const std::size_t lanes = sets.size();
  const std::size_t in_dim = net.input_dim();
  NNCS_SPAN_TAGGED("nn.zonotope_prop", "lanes", static_cast<std::int64_t>(lanes));

  // Per-lane slot maps: the sorted union of the lane's input symbol ids.
  std::vector<LaneSymbols> lanes_sym(lanes);
  std::size_t n_slots = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<std::uint32_t> ids;
    for (const Affine& form : sets[l]->components()) {
      for (const auto& term : form.terms()) {
        ids.push_back(term.first);
      }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    lanes_sym[l].slot_ids = std::move(ids);
    lanes_sym[l].next_fresh = sets[l]->noise().count();
    n_slots = std::max(n_slots, lanes_sym[l].slot_ids.size());
  }
  for (auto& lane : lanes_sym) {
    lane.slot_ids.resize(n_slots, kNoSymbol);
  }

  // Preallocate both ping-pong buffers at the final shape: every hidden row
  // may append one slot column, and any layer (or the input) sets the width.
  std::size_t width_max = in_dim;
  std::size_t hidden_rows = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const std::size_t rows = net.layers()[li].weights.rows();
    width_max = std::max(width_max, rows);
    if (li + 1 < net.num_layers()) {
      hidden_rows += rows;
    }
  }
  const std::size_t capacity = n_slots + hidden_rows;
  kern::AffineFormBatch cur;
  kern::AffineFormBatch nxt;
  cur.resize(width_max, capacity, lanes);
  nxt.resize(width_max, capacity, lanes);
  cur.width = in_dim;
  cur.n_slots = n_slots;
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t d = 0; d < in_dim; ++d) {
      scatter_lane(cur, d, l, lanes_sym[l], (*sets[l])[d]);
    }
  }

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const Layer& layer = net.layers()[li];
    kern::affine_form_layer(layer, cur, nxt, isa);
    std::swap(cur, nxt);
    if (li + 1 < net.num_layers()) {
      relu_stage(cur, lanes_sym);
    }
  }

  std::vector<ZonotopeBounds> results(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<Affine> outputs;
    outputs.reserve(cur.width);
    std::vector<Interval> dims;
    dims.reserve(cur.width);
    for (std::size_t r = 0; r < cur.width; ++r) {
      outputs.push_back(extract_lane(cur, r, l, lanes_sym[l]));
      dims.push_back(outputs.back().range());
    }
    results[l].outputs = std::move(outputs);
    results[l].output_box = Box{std::move(dims)};
  }
  return results;
}

}  // namespace

std::vector<ZonotopeBounds> zonotope_propagate_batch(
    const Network& net, const std::vector<const AffineSet*>& inputs, kern::Isa isa) {
  for (const AffineSet* set : inputs) {
    if (set == nullptr || set->dim() != net.input_dim()) {
      throw std::invalid_argument("zonotope_propagate: input dimension mismatch");
    }
  }
  std::vector<ZonotopeBounds> results;
  results.reserve(inputs.size());
  const std::span<const AffineSet* const> sets(inputs);
  for (std::size_t begin = 0; begin < sets.size(); begin += kern::kMaxLanes) {
    const std::size_t lanes = std::min(kern::kMaxLanes, sets.size() - begin);
    for (ZonotopeBounds& bounds : propagate_chunk(net, sets.subspan(begin, lanes), isa)) {
      results.push_back(std::move(bounds));
    }
  }
  return results;
}

std::vector<ZonotopeBounds> zonotope_propagate_batch(
    const Network& net, const std::vector<const AffineSet*>& inputs) {
  return zonotope_propagate_batch(net, inputs, kern::active_isa());
}

std::vector<std::size_t> possible_argmin(const ZonotopeBounds& bounds) {
  const std::size_t p = bounds.outputs.size();
  if (p == 0) {
    throw std::invalid_argument("possible_argmin: empty zonotope bounds");
  }
  std::vector<std::size_t> result;
  for (std::size_t k = 0; k < p; ++k) {
    bool excluded = false;
    for (std::size_t j = 0; j < p && !excluded; ++j) {
      if (j == k) {
        continue;
      }
      // Shared noise symbols cancel in the difference.
      if ((bounds.outputs[j] - bounds.outputs[k]).range().hi() < 0.0) {
        excluded = true;
      }
    }
    if (!excluded) {
      result.push_back(k);
    }
  }
  return result;
}

}  // namespace nncs
