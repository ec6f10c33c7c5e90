#include "nn/symbolic_prop.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "interval/rounding.hpp"
#include "obs/span.hpp"

namespace nncs {

namespace {

using rnd::kCoeffSlack;

/// (coeffs, constant, err) += k * form (component-wise on the n
/// coefficients and the constant), with the rounding of each fused update
/// bounded into err.
void axpy(double* coeffs, double& constant, double& err, std::size_t n, double k,
          const AffineForm& form) {
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] += k * form.coeffs[i];
    abs_sum += std::fabs(coeffs[i]);
  }
  constant += k * form.constant;
  abs_sum += std::fabs(constant);
  err += std::fabs(k) * form.err + kCoeffSlack * abs_sum;
}

void axpy(AffineForm& result, double k, const AffineForm& form) {
  axpy(result.coeffs.data(), result.constant, result.err, result.coeffs.size(), k, form);
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

void zero_neuron(kern::SymbolicSide& side, std::size_t stride, std::size_t n_in,
                 std::size_t r) {
  for (std::size_t i = 0; i < n_in; ++i) {
    side.coeffs[i * stride + r] = 0.0;
  }
  side.constant[r] = 0.0;
  side.err[r] = 0.0;
}

/// The ReLU relaxation of every neuron of a hidden layer, in place, as the
/// scalar path does it, on the pre-activation ranges [lo[r], hi[r]] that
/// `kern::symbolic_relu_bounds` gives. An unstable neuron's chord replays
/// `relaxed_upper = zero_form; axpy(relaxed_upper, lambda, upper); ...`
/// expression by expression, including the `0.0 +` of the axpy onto a zero
/// form, which turns a −0.0 product into +0.0 as the scalar code does.
void relu_in_place(kern::SymbolicForms& forms, const double* lo, const double* hi) {
  const std::size_t stride = forms.stride;
  for (std::size_t r = 0; r < forms.width; ++r) {
    const double l = lo[r];
    const double u = hi[r];
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

std::vector<SymbolicBounds> symbolic_propagate_batch(const kern::PackedNetwork& net,
                                                     const std::vector<Box>& inputs,
                                                     kern::Isa isa) {
  const std::size_t n_in = net.input_dim;
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

  // Per-thread buffers, reused by every call; only the results are new.
  thread_local kern::SymbolicForms cur;
  thread_local kern::SymbolicForms nxt;
  thread_local std::vector<double> lo;
  thread_local std::vector<double> hi;
  const std::size_t stride = net.stride;
  for (kern::SymbolicForms* forms : {&cur, &nxt}) {
    forms->stride = stride;
    forms->n_in = n_in;
    for (kern::SymbolicSide* side : {&forms->lower, &forms->upper}) {
      side->coeffs.resize(n_in * stride);
      side->constant.resize(stride);
      side->err.resize(stride);
    }
  }
  lo.resize(stride);
  hi.resize(stride);
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
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
      kern::symbolic_affine_layer(net.layers[li], cur, nxt, isa);
      if (li + 1 < net.layers.size()) {
        kern::symbolic_relu_bounds(nxt, input, lo.data(), hi.data(), isa);
        relu_in_place(nxt, lo.data(), hi.data());
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
  NNCS_COUNT("nn.symbolic_macs", net.symbolic_macs * inputs.size());
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

namespace {

/// `concretize(a − b, input)`'s lower (kUpper false) or upper bound, bit for
/// bit, where a − b is `zero_form; axpy(+1, a); axpy(−1, b)` built in a
/// stack buffer (the heap only past kStackInputs inputs).
template <bool kUpper>
double difference_side(const AffineForm& a, const AffineForm& b, const Box& input) {
  constexpr std::size_t kStackInputs = 16;
  const std::size_t n = input.dim();
  // Not zeroed, which would cost a third of Post#: entry i is written
  // before it is read.
  std::array<double, kStackInputs> stack;
  std::vector<double> heap(n > kStackInputs ? n : 0);
  double* coeffs = n > kStackInputs ? heap.data() : stack.data();
  // axpy(+1, a) onto the zero form, as assignments: 0.0 + 1.0·x turns a
  // −0.0 into +0.0 as the sum does.
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] = 0.0 + 1.0 * a.coeffs[i];
    abs_sum += std::fabs(coeffs[i]);
  }
  double constant = 0.0 + 1.0 * a.constant;
  abs_sum += std::fabs(constant);
  double err = 0.0 + (1.0 * a.err + kCoeffSlack * abs_sum);
  axpy(coeffs, constant, err, n, -1.0, b);
  return kern::concretize_side<kUpper>(coeffs, 1, constant, err, input);
}

}  // namespace

Interval output_difference(const SymbolicBounds& bounds, std::size_t i, std::size_t j) {
  if (i >= bounds.outputs.size() || j >= bounds.outputs.size()) {
    throw std::out_of_range("output_difference: index out of range");
  }
  // y_i − y_j >= lower_i(x) − upper_j(x)  and  <= upper_i(x) − lower_j(x).
  const double lo =
      difference_side<false>(bounds.outputs[i].lower, bounds.outputs[j].upper, bounds.input);
  const double hi =
      difference_side<true>(bounds.outputs[i].upper, bounds.outputs[j].lower, bounds.input);
  return Interval{std::min(lo, hi), std::max(lo, hi)};
}

bool output_difference_negative(const SymbolicBounds& bounds, std::size_t i, std::size_t j) {
  if (i >= bounds.outputs.size() || j >= bounds.outputs.size()) {
    throw std::out_of_range("output_difference: index out of range");
  }
  const double hi =
      difference_side<true>(bounds.outputs[i].upper, bounds.outputs[j].lower, bounds.input);
  if (hi >= 0.0) {
    return false;
  }
  // hi < 0 or NaN: the decision is lo < 0, and a NaN side throws from the
  // Interval as it does in output_difference.
  const double lo =
      difference_side<false>(bounds.outputs[i].lower, bounds.outputs[j].upper, bounds.input);
  return Interval{std::min(lo, hi), std::max(lo, hi)}.hi() < 0.0;
}

}  // namespace nncs
