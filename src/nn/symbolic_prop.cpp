#include "nn/symbolic_prop.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "interval/rounding.hpp"
#include "obs/span.hpp"

namespace nncs {

namespace {

using rnd::kCoeffSlack;

/// result += k * form (component-wise on coefficients and constant), with
/// the rounding of each fused update bounded into result.err.
void axpy(AffineForm& result, double k, const AffineForm& form) {
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < result.coeffs.size(); ++i) {
    result.coeffs[i] += k * form.coeffs[i];
    abs_sum += std::fabs(result.coeffs[i]);
  }
  result.constant += k * form.constant;
  abs_sum += std::fabs(result.constant);
  result.err += std::fabs(k) * form.err + kCoeffSlack * abs_sum;
}

AffineForm zero_form(std::size_t input_dim) { return AffineForm{Vec(input_dim, 0.0), 0.0, 0.0}; }

}  // namespace

Interval concretize(const AffineForm& form, const Box& input) {
  Interval acc{form.constant};
  for (std::size_t i = 0; i < form.coeffs.size(); ++i) {
    if (form.coeffs[i] != 0.0) {
      acc += Interval{form.coeffs[i]} * input[i];
    }
  }
  return acc.inflated(form.err + 1e-12);
}

SymbolicBounds symbolic_propagate(const Network& net, const Box& input) {
  if (input.dim() != net.input_dim()) {
    throw std::invalid_argument("symbolic_propagate: input dimension mismatch");
  }
  NNCS_SPAN("nn.symbolic_prop");
  const std::size_t n_in = input.dim();

  // Input layer: identity bounds.
  std::vector<NeuronBounds> current(n_in);
  for (std::size_t i = 0; i < n_in; ++i) {
    AffineForm id = zero_form(n_in);
    id.coeffs[i] = 1.0;
    current[i] = NeuronBounds{id, id};
  }

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const Layer& layer = net.layers()[li];
    const bool is_output = li + 1 == net.num_layers();
    std::vector<NeuronBounds> next(layer.weights.rows());

    for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
      AffineForm lower = zero_form(n_in);
      AffineForm upper = zero_form(n_in);
      lower.constant = layer.biases[r];
      upper.constant = layer.biases[r];
      for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
        const double w = layer.weights(r, c);
        if (w == 0.0) {
          continue;
        }
        if (w >= 0.0) {
          axpy(lower, w, current[c].lower);
          axpy(upper, w, current[c].upper);
        } else {
          axpy(lower, w, current[c].upper);
          axpy(upper, w, current[c].lower);
        }
      }

      if (is_output) {
        next[r] = NeuronBounds{std::move(lower), std::move(upper)};
        continue;
      }

      // ReLU relaxation on the pre-activation range [l, u].
      const double l = concretize(lower, input).lo();
      const double u = concretize(upper, input).hi();
      if (u <= 0.0) {
        next[r] = NeuronBounds{zero_form(n_in), zero_form(n_in)};
      } else if (l >= 0.0) {
        next[r] = NeuronBounds{std::move(lower), std::move(upper)};
      } else {
        // Unstable: chord upper bound, α·lower lower bound.
        NNCS_COUNT("nn.relaxed_relus", 1);
        const double lambda = u / (u - l);
        const double mu = -lambda * l;
        AffineForm relaxed_upper = zero_form(n_in);
        axpy(relaxed_upper, lambda, upper);
        relaxed_upper.constant += mu;
        // Cover the double-precision computation of the chord parameters.
        relaxed_upper.err +=
            kCoeffSlack * (std::fabs(mu) + std::fabs(lambda) * (std::fabs(l) + std::fabs(u)));
        AffineForm relaxed_lower = zero_form(n_in);
        if (u >= -l) {
          relaxed_lower = lower;  // α = 1
        }
        // else α = 0: keep the zero form.
        next[r] = NeuronBounds{std::move(relaxed_lower), std::move(relaxed_upper)};
      }
    }
    current = std::move(next);
  }

  SymbolicBounds result;
  result.input = input;
  result.outputs = std::move(current);
  result.output_box = concretize_output_box(result.outputs, input);
  return result;
}

namespace {

/// One bound of `Interval{c} * x` for a coefficient c != 0: bit for bit
/// the lower (kUpper false) or upper bound `operator*` gives, in its order
/// of cases: c == 1 returns x; a degenerate x at 1 returns c; a degenerate x
/// at 0 returns 0 when c is finite; else the corner products, NaN mapped to
/// 0, rounded out by one ulp. The two bounds never feed each other.
template <bool kUpper>
double product_bound(double c, const Interval& x) {
  if (c == 1.0) {
    return kUpper ? x.hi() : x.lo();
  }
  if (x.lo() == x.hi()) {
    if (x.lo() == 1.0) {
      return c;
    }
    if (x.lo() == 0.0 && std::isfinite(c)) {
      return 0.0;
    }
  }
  double p = c * x.lo();
  double q = c * x.hi();
  p = std::isnan(p) ? 0.0 : p;
  q = std::isnan(q) ? 0.0 : q;
  return kUpper ? rnd::next_up(std::max(p, q)) : rnd::next_down(std::min(p, q));
}

/// `concretize(form, input).lo()` (kUpper false) or `.hi()` (true) of
/// neuron r's form in `side`, bit for bit, without the other bound: the
/// constant, then `operator+` of each nonzero coefficient's product, then
/// `inflated(err + 1e-12)`, which throws on a negative or NaN delta.
template <bool kUpper>
double concretize_bound(const kern::SymbolicSide& side, std::size_t stride, std::size_t r,
                        const Box& input) {
  double acc = side.constant[r];
  for (std::size_t i = 0; i < input.dim(); ++i) {
    const double c = side.coeffs[i * stride + r];
    if (c != 0.0) {
      const double p = product_bound<kUpper>(c, input[i]);
      acc = kUpper ? rnd::add_up(acc, p) : rnd::add_down(acc, p);
    }
  }
  const double delta = side.err[r] + 1e-12;
  if (delta < 0.0 || std::isnan(delta)) {
    throw std::invalid_argument("Interval::inflated: negative delta");
  }
  return kUpper ? rnd::add_up(acc, delta) : rnd::sub_down(acc, delta);
}

void zero_neuron(kern::SymbolicSide& side, std::size_t stride, std::size_t n_in,
                 std::size_t r) {
  for (std::size_t i = 0; i < n_in; ++i) {
    side.coeffs[i * stride + r] = 0.0;
  }
  side.constant[r] = 0.0;
  side.err[r] = 0.0;
}

/// The ReLU relaxation of every neuron of a hidden layer, in place, as the
/// scalar path does it. An unstable neuron's chord replays `relaxed_upper =
/// zero_form; axpy(relaxed_upper, lambda, upper); ...` expression by
/// expression, including the `0.0 +` of the axpy onto a zero form, which
/// turns a −0.0 product into +0.0 as the scalar code does.
void relu_in_place(kern::SymbolicForms& forms, const Box& input) {
  const std::size_t stride = forms.stride;
  for (std::size_t r = 0; r < forms.width; ++r) {
    const double l = concretize_bound<false>(forms.lower, stride, r, input);
    const double u = concretize_bound<true>(forms.upper, stride, r, input);
    if (u <= 0.0) {
      zero_neuron(forms.lower, stride, forms.n_in, r);
      zero_neuron(forms.upper, stride, forms.n_in, r);
      continue;
    }
    if (l >= 0.0) {
      continue;  // stable-active: the forms pass through unchanged
    }
    NNCS_COUNT("nn.relaxed_relus", 1);
    const double lambda = u / (u - l);
    const double mu = -lambda * l;
    kern::SymbolicSide& upper = forms.upper;
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < forms.n_in; ++i) {
      double& coeff = upper.coeffs[i * stride + r];
      coeff = 0.0 + lambda * coeff;
      abs_sum += std::fabs(coeff);
    }
    upper.constant[r] = 0.0 + lambda * upper.constant[r];
    abs_sum += std::fabs(upper.constant[r]);
    upper.err[r] = 0.0 + (std::fabs(lambda) * upper.err[r] + kCoeffSlack * abs_sum);
    upper.constant[r] += mu;
    // Cover the double-precision computation of the chord parameters.
    upper.err[r] +=
        kCoeffSlack * (std::fabs(mu) + std::fabs(lambda) * (std::fabs(l) + std::fabs(u)));
    if (!(u >= -l)) {
      // α = 0: the lower bound collapses to the zero form (α = 1 keeps it).
      zero_neuron(forms.lower, stride, forms.n_in, r);
    }
  }
}

/// Neuron r's form in `side` as a heap AffineForm (bit-preserving).
AffineForm extract(const kern::SymbolicSide& side, std::size_t stride, std::size_t n_in,
                   std::size_t r) {
  AffineForm form{Vec(n_in), side.constant[r], side.err[r]};
  for (std::size_t i = 0; i < n_in; ++i) {
    form.coeffs[i] = side.coeffs[i * stride + r];
  }
  return form;
}

}  // namespace

std::vector<SymbolicBounds> symbolic_propagate_batch(const Network& net,
                                                     const std::vector<Box>& inputs) {
  return symbolic_propagate_batch(net, inputs, kern::active_isa());
}

std::vector<SymbolicBounds> symbolic_propagate_batch(const Network& net,
                                                     const std::vector<Box>& inputs,
                                                     kern::Isa isa) {
  const std::size_t n_in = net.input_dim();
  for (const Box& input : inputs) {
    if (input.dim() != n_in) {
      throw std::invalid_argument("symbolic_propagate_batch: input dimension mismatch");
    }
  }
  std::vector<SymbolicBounds> results;
  if (inputs.empty()) {
    return results;
  }
  NNCS_SPAN_TAGGED("nn.symbolic_prop", "queries", static_cast<std::int64_t>(inputs.size()));
  results.reserve(inputs.size());

  // One neuron stride for every layer; the layers are packed once per call.
  std::size_t stride = n_in;
  std::size_t macs = 0;
  for (const Layer& layer : net.layers()) {
    stride = std::max(stride, layer.weights.rows());
    macs += 2 * layer.weights.rows() * layer.weights.cols() * n_in;
  }
  stride = (stride + kern::kNeuronBlock - 1) / kern::kNeuronBlock * kern::kNeuronBlock;
  std::vector<kern::PackedLayer> layers;
  layers.reserve(net.num_layers());
  for (const Layer& layer : net.layers()) {
    layers.push_back(kern::pack_layer(layer, stride));
  }

  kern::SymbolicForms cur;
  kern::SymbolicForms nxt;
  for (kern::SymbolicForms* forms : {&cur, &nxt}) {
    forms->stride = stride;
    forms->n_in = n_in;
    for (kern::SymbolicSide* side : {&forms->lower, &forms->upper}) {
      side->coeffs.resize(n_in * stride);
      side->constant.resize(stride);
      side->err.resize(stride);
    }
  }
  for (const Box& input : inputs) {
    // Input layer: identity bounds.
    cur.width = n_in;
    for (kern::SymbolicSide* side : {&cur.lower, &cur.upper}) {
      std::fill(side->coeffs.begin(), side->coeffs.end(), 0.0);
      std::fill(side->constant.begin(), side->constant.end(), 0.0);
      std::fill(side->err.begin(), side->err.end(), 0.0);
      for (std::size_t i = 0; i < n_in; ++i) {
        side->coeffs[i * stride + i] = 1.0;
      }
    }
    for (std::size_t li = 0; li < layers.size(); ++li) {
      kern::symbolic_affine_layer(layers[li], cur, nxt, isa);
      if (li + 1 < layers.size()) {
        relu_in_place(nxt, input);
      }
      std::swap(cur, nxt);
    }

    SymbolicBounds bounds;
    bounds.input = input;
    bounds.outputs.reserve(cur.width);
    for (std::size_t r = 0; r < cur.width; ++r) {
      bounds.outputs.push_back(NeuronBounds{extract(cur.lower, stride, n_in, r),
                                            extract(cur.upper, stride, n_in, r)});
    }
    bounds.output_box = concretize_output_box(bounds.outputs, bounds.input);
    results.push_back(std::move(bounds));
  }
  NNCS_COUNT("nn.symbolic_macs", macs * inputs.size());
  return results;
}

Box concretize_output_box(const std::vector<NeuronBounds>& outputs, const Box& input) {
  std::vector<Interval> out_dims;
  out_dims.reserve(outputs.size());
  for (const auto& nb : outputs) {
    const Interval lo = concretize(nb.lower, input);
    const Interval hi = concretize(nb.upper, input);
    if (lo.lo() <= hi.hi()) {
      out_dims.emplace_back(lo.lo(), hi.hi());
    } else {
      // Crossed bounds: the former min/max swap silently produced the
      // *inverted* (possibly non-enclosing) interval here; the hull of both
      // concretizations is conservative no matter which form is off.
      NNCS_COUNT("nn.crossed_bounds", 1);
      out_dims.push_back(hull(lo, hi));
    }
  }
  return Box{std::move(out_dims)};
}

Interval output_difference(const SymbolicBounds& bounds, std::size_t i, std::size_t j) {
  if (i >= bounds.outputs.size() || j >= bounds.outputs.size()) {
    throw std::out_of_range("output_difference: index out of range");
  }
  const std::size_t n_in = bounds.input.dim();
  // y_i − y_j >= lower_i(x) − upper_j(x)  and  <= upper_i(x) − lower_j(x).
  AffineForm diff_lower = zero_form(n_in);
  axpy(diff_lower, 1.0, bounds.outputs[i].lower);
  axpy(diff_lower, -1.0, bounds.outputs[j].upper);
  AffineForm diff_upper = zero_form(n_in);
  axpy(diff_upper, 1.0, bounds.outputs[i].upper);
  axpy(diff_upper, -1.0, bounds.outputs[j].lower);
  const double lo = concretize(diff_lower, bounds.input).lo();
  const double hi = concretize(diff_upper, bounds.input).hi();
  return Interval{std::min(lo, hi), std::max(lo, hi)};
}

}  // namespace nncs
