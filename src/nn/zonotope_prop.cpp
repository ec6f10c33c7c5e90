#include "nn/zonotope_prop.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "interval/rounding.hpp"
#include "obs/metrics.hpp"
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

using rnd::kCoeffSlack;

/// Lay `set`'s forms into `forms` (columns 0..dim−1, slot rows zeroed
/// first, every column shared over every slot) and `ids` the symbol each
/// slot holds: the sorted union of the forms' term ids.
void load_set(const AffineSet& set, kern::ZonotopeForms& forms,
              std::vector<std::uint32_t>& ids) {
  ids.clear();
  for (const Affine& form : set.components()) {
    for (const auto& term : form.terms()) {
      ids.push_back(term.first);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  forms.width = set.dim();
  forms.n_slots = ids.size();
  forms.shared = ids.size();
  forms.own.assign(set.dim(), kern::ZonotopeForms::kSharedOnly);
  std::fill_n(forms.coeffs.begin(), ids.size() * forms.stride, 0.0);
  for (std::size_t d = 0; d < set.dim(); ++d) {
    const Affine& form = set[d];
    forms.center[d] = form.center();
    forms.err[d] = form.error();
    for (const auto& [id, v] : form.terms()) {
      forms.slot(std::lower_bound(ids.begin(), ids.end(), id) - ids.begin())[d] = v;
    }
  }
}

constexpr std::size_t kBlock = kern::kNeuronBlock;

/// `Affine::radius` of every neuron, a block of neurons at a time: the
/// error term plus |coeff| per slot in slot order (a zero slot adds
/// nothing), times 1 + kCoeffSlack·(nonzero slots + 1).
void radii(const kern::ZonotopeForms& forms, double* radius) {
  for (std::size_t r0 = 0; r0 < forms.width; r0 += kBlock) {
    const std::size_t lanes = std::min(kBlock, forms.width - r0);
    double sum[kBlock];
    double count[kBlock];
    for (std::size_t j = 0; j < lanes; ++j) {
      sum[j] = forms.err[r0 + j];
      count[j] = 0.0;
    }
    for (std::size_t s = 0; s < forms.n_slots; ++s) {
      const double* row = forms.slot(s) + r0;
      for (std::size_t j = 0; j < lanes; ++j) {
        sum[j] += std::fabs(row[j]);
        count[j] += row[j] != 0.0 ? 1.0 : 0.0;
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      radius[r0 + j] = sum[j] * (1.0 + kCoeffSlack * (count[j] + 1.0));
    }
  }
}

/// ReLU on every neuron of a hidden layer, in place, replaying
/// `Affine::range` (the radii a block of neurons at a time) and
/// `Affine::relu` per neuron. Each unstable neuron takes its own fresh slot,
/// in neuron order, whose symbol is the next id the scalar `NoiseSource`
/// would hand out (`next_fresh`). Records the slot structure: the slots
/// before the ReLU are shared, and the layer output's record of every
/// column shared is narrowed to dead and own-slot columns. Returns the
/// number of unstable neurons.
std::size_t relu_in_place(kern::ZonotopeForms& forms, std::vector<std::uint32_t>& slot_ids,
                          std::uint32_t& next_fresh, std::vector<double>& radius) {
  radii(forms, radius.data());
  const std::size_t stride = forms.stride;
  forms.shared = forms.n_slots;
  std::size_t unstable = 0;
  for (std::size_t r = 0; r < forms.width; ++r) {
    const Interval range{rnd::sub_down(forms.center[r], radius[r]),
                         rnd::add_up(forms.center[r], radius[r])};
    const double l = range.lo();
    const double u = range.hi();
    if (l >= 0.0) {
      continue;
    }
    if (u <= 0.0) {
      for (std::size_t s = 0; s < forms.n_slots; ++s) {
        forms.coeffs[s * stride + r] = 0.0;
      }
      forms.center[r] = 0.0;
      forms.err[r] = 0.0;
      forms.own[r] = kern::ZonotopeForms::kDead;
      continue;
    }
    const double lambda = u / (u - l);
    const double mu = -lambda * l;
    // λ·form; a product that underflows is a term the scalar code drops, and
    // the ±0 it leaves adds nothing where the next layer reads it.
    double center = lambda * forms.center[r];
    double abs_sum = std::fabs(center);
    for (std::size_t s = 0; s < forms.n_slots; ++s) {
      double& coeff = forms.coeffs[s * stride + r];
      coeff *= lambda;
      abs_sum += std::fabs(coeff);
    }
    double err = std::fabs(lambda) * forms.err[r] + kCoeffSlack * abs_sum;
    center += mu / 2.0;
    double* fresh = forms.slot(forms.n_slots);
    std::fill_n(fresh, stride, 0.0);
    fresh[r] = mu / 2.0;
    forms.own[r] = forms.n_slots++;
    slot_ids.push_back(next_fresh++);
    err += kCoeffSlack * (std::fabs(center) + mu);
    forms.center[r] = center;
    forms.err[r] = err;
    ++unstable;
  }
  return unstable;
}

/// The output layer's forms as sparse `Affine`s and their range box.
ZonotopeBounds extract_outputs(const kern::ZonotopeForms& forms,
                               const std::vector<std::uint32_t>& slot_ids) {
  ZonotopeBounds result;
  result.outputs.reserve(forms.width);
  std::vector<Interval> dims;
  dims.reserve(forms.width);
  for (std::size_t r = 0; r < forms.width; ++r) {
    std::vector<std::pair<std::uint32_t, double>> terms;
    for (std::size_t s = 0; s < forms.n_slots; ++s) {
      const double v = forms.coeffs[s * forms.stride + r];
      if (v != 0.0) {
        terms.emplace_back(slot_ids[s], v);
      }
    }
    result.outputs.push_back(
        Affine::from_parts(forms.center[r], std::move(terms), forms.err[r]));
    dims.push_back(result.outputs.back().range());
  }
  result.output_box = Box{std::move(dims)};
  return result;
}

}  // namespace

std::vector<ZonotopeBounds> zonotope_propagate_batch(
    const kern::PackedNetwork& net, const std::vector<const AffineSet*>& inputs, kern::Isa isa) {
  for (const AffineSet* set : inputs) {
    if (set == nullptr || set->dim() != net.input_dim) {
      throw std::invalid_argument("zonotope_propagate: input dimension mismatch");
    }
  }
  std::vector<ZonotopeBounds> results;
  if (inputs.empty()) {
    return results;
  }
  results.reserve(inputs.size());

  // Per-thread buffers, reused by every call; only the results are new.
  thread_local kern::ZonotopeForms cur;
  thread_local kern::ZonotopeForms nxt;
  thread_local std::vector<double> radius;
  thread_local std::vector<std::uint32_t> slot_ids;
  const std::size_t stride = net.stride;
  const std::vector<kern::PackedLayer>& layers = net.layers;
  for (kern::ZonotopeForms* forms : {&cur, &nxt}) {
    forms->stride = stride;
    forms->center.resize(stride);
    forms->err.resize(stride);
  }
  radius.resize(stride);
  for (const AffineSet* set : inputs) {
    NNCS_SPAN("nn.zonotope_prop");
    std::size_t input_slots = 0;
    for (const Affine& form : set->components()) {
      input_slots += form.terms().size();
    }
    // Room for one fresh slot per hidden neuron on top of the input slots.
    const std::size_t capacity = (input_slots + net.hidden_rows) * stride;
    for (kern::ZonotopeForms* forms : {&cur, &nxt}) {
      if (forms->coeffs.size() < capacity) {
        forms->coeffs.resize(capacity);
      }
    }
    load_set(*set, cur, slot_ids);
    std::uint32_t next_fresh = set->noise().count();
    std::size_t unstable = 0;
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const std::size_t macs = kern::zonotope_affine_layer(layers[li], cur, nxt, isa);
      NNCS_COUNT("nn.zonotope_macs", macs);
      std::swap(cur, nxt);
      if (li + 1 < layers.size()) {
        unstable += relu_in_place(cur, slot_ids, next_fresh, radius);
      }
    }
    NNCS_COUNT("nn.relaxed_relus", unstable);
    results.push_back(extract_outputs(cur, slot_ids));
  }
  return results;
}

namespace {

/// Calls `visit` with each value of a − b's merged terms, exact zeros
/// included, in id order, as `operator-` computes them.
template <class Visit>
void for_each_difference_term(const Affine& a, const Affine& b, Visit visit) {
  const auto& x = a.terms();
  const auto& y = b.terms();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() || j < y.size()) {
    if (j >= y.size() || (i < x.size() && x[i].first < y[j].first)) {
      visit(1.0 * x[i++].second);
    } else if (i >= x.size() || y[j].first < x[i].first) {
      visit(-1.0 * y[j++].second);
    } else {
      visit(1.0 * x[i++].second + -1.0 * y[j++].second);
    }
  }
}

}  // namespace

double difference_hi(const Affine& a, const Affine& b) {
  // The error term sums |center| and every value's |·|; the radius then
  // adds each nonzero value's |·|, kept on the stack when they fit. Not
  // zeroed, which would cost a sixth of Post#: kept[t] is written before it
  // is read.
  constexpr std::size_t kStackTerms = 256;
  std::array<double, kStackTerms> kept;
  const bool fits = a.terms().size() + b.terms().size() <= kStackTerms;
  const double center = a.center() - b.center();
  double abs_sum = std::fabs(center);
  std::size_t terms = 0;
  for_each_difference_term(a, b, [&](double v) {
    abs_sum += std::fabs(v);
    if (v != 0.0) {
      if (fits) {
        kept[terms] = std::fabs(v);
      }
      ++terms;
    }
  });
  double radius = a.error() + b.error() + kCoeffSlack * abs_sum;
  for (std::size_t t = 0; fits && t < terms; ++t) {
    radius += kept[t];
  }
  if (!fits) {
    for_each_difference_term(a, b, [&](double v) {
      if (v != 0.0) {
        radius += std::fabs(v);
      }
    });
  }
  radius *= 1.0 + kCoeffSlack * static_cast<double>(terms + 1);
  return Interval{rnd::sub_down(center, radius), rnd::add_up(center, radius)}.hi();
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
      if (difference_hi(bounds.outputs[j], bounds.outputs[k]) < 0.0) {
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
