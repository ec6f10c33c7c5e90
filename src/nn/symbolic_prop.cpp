#include "nn/symbolic_prop.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

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

/// Strided view of one lane's affine form inside an `AffineBatch` row:
/// coefficient i lives at `coeffs[i * lanes]`. The batched ReLU stage works
/// on these views directly so the stable-neuron cases touch no heap.
struct LaneForm {
  double* coeffs;  // stride `lanes`
  std::size_t lanes;
  std::size_t n_in;
  double* constant;
  double* err;
};

/// concretize() on a lane view — the exact interval-op sequence of the
/// scalar concretize above, reading the coefficients through the stride.
Interval concretize_lane(const LaneForm& form, const Box& input) {
  Interval acc{*form.constant};
  for (std::size_t i = 0; i < form.n_in; ++i) {
    const double c = form.coeffs[i * form.lanes];
    if (c != 0.0) {
      acc += Interval{c} * input[i];
    }
  }
  return acc.inflated(*form.err + 1e-12);
}

void zero_lane(LaneForm& form) {
  for (std::size_t i = 0; i < form.n_in; ++i) {
    form.coeffs[i * form.lanes] = 0.0;
  }
  *form.constant = 0.0;
  *form.err = 0.0;
}

/// The unstable-ReLU chord relaxation on a lane view, replicating the
/// scalar path's `relaxed_upper = zero_form; axpy(relaxed_upper, lambda,
/// upper); ...` expression by expression — including the `0.0 +` of the
/// axpy-onto-zero-form updates, which canonicalizes -0.0 products to +0.0
/// exactly like the scalar code does.
void relax_lane(LaneForm& lower, LaneForm& upper, double l, double u) {
  const double lambda = u / (u - l);
  const double mu = -lambda * l;
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < upper.n_in; ++i) {
    double& uc = upper.coeffs[i * upper.lanes];
    uc = 0.0 + lambda * uc;
    abs_sum += std::fabs(uc);
  }
  *upper.constant = 0.0 + lambda * *upper.constant;
  abs_sum += std::fabs(*upper.constant);
  *upper.err = 0.0 + (std::fabs(lambda) * *upper.err + kCoeffSlack * abs_sum);
  *upper.constant += mu;
  // Cover the double-precision computation of the chord parameters.
  *upper.err += kCoeffSlack * (std::fabs(mu) + std::fabs(lambda) * (std::fabs(l) + std::fabs(u)));
  if (!(u >= -l)) {
    // α = 0: the lower bound collapses to the zero form (α = 1 keeps it).
    zero_lane(lower);
  }
}

LaneForm lane_view(kern::AffineBatch& batch, std::size_t r, std::size_t l) {
  return LaneForm{batch.row_coeffs(r) + l, batch.lanes, batch.n_in,
                  batch.constant.data() + r * batch.lanes + l,
                  batch.err.data() + r * batch.lanes + l};
}

/// Extract lane `l` of row `r` into a heap AffineForm (bit-preserving).
AffineForm extract_lane(const kern::AffineBatch& batch, std::size_t r, std::size_t l) {
  AffineForm form;
  form.coeffs.resize(batch.n_in);
  const double* c = batch.row_coeffs(r) + l;
  for (std::size_t i = 0; i < batch.n_in; ++i) {
    form.coeffs[i] = c[i * batch.lanes];
  }
  form.constant = batch.constant[r * batch.lanes + l];
  form.err = batch.err[r * batch.lanes + l];
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
  std::vector<SymbolicBounds> results;
  results.reserve(inputs.size());
  const std::size_t n_in = net.input_dim();
  kern::SymbolicBatch current;
  kern::SymbolicBatch next;
  for (std::size_t begin = 0; begin < inputs.size(); begin += kern::kMaxLanes) {
    const std::size_t lanes = std::min(inputs.size() - begin, kern::kMaxLanes);
    NNCS_SPAN_TAGGED("nn.symbolic_prop", "lanes", static_cast<std::int64_t>(lanes));
    for (std::size_t l = 0; l < lanes; ++l) {
      if (inputs[begin + l].dim() != n_in) {
        throw std::invalid_argument("symbolic_propagate_batch: input dimension mismatch");
      }
    }

    // Input layer: identity bounds in every lane.
    current.resize(n_in, n_in, lanes);
    std::fill(current.lower.coeffs.begin(), current.lower.coeffs.end(), 0.0);
    std::fill(current.lower.constant.begin(), current.lower.constant.end(), 0.0);
    std::fill(current.lower.err.begin(), current.lower.err.end(), 0.0);
    for (std::size_t i = 0; i < n_in; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        current.lower.coeffs[(i * n_in + i) * lanes + l] = 1.0;
      }
    }
    current.upper = current.lower;

    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      const Layer& layer = net.layers()[li];
      const bool is_output = li + 1 == net.num_layers();
      kern::symbolic_affine_layer(layer, current, next, isa);
      NNCS_COUNT("nn.symbolic_macs",
                 2 * lanes * layer.weights.rows() * layer.weights.cols() * n_in);
      if (!is_output) {
        // ReLU relaxation per (neuron, lane) on the pre-activation range —
        // cells diverge here, so this stage is per-lane scalar on the SoA.
        for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
          for (std::size_t l = 0; l < lanes; ++l) {
            const Box& input = inputs[begin + l];
            LaneForm lower = lane_view(next.lower, r, l);
            LaneForm upper = lane_view(next.upper, r, l);
            const double lo_val = concretize_lane(lower, input).lo();
            const double up_val = concretize_lane(upper, input).hi();
            if (up_val <= 0.0) {
              zero_lane(lower);
              zero_lane(upper);
            } else if (lo_val >= 0.0) {
              // Stable-active: forms pass through unchanged.
            } else {
              NNCS_COUNT("nn.relaxed_relus", 1);
              relax_lane(lower, upper, lo_val, up_val);
            }
          }
        }
      }
      std::swap(current, next);
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      SymbolicBounds bounds;
      bounds.input = inputs[begin + l];
      bounds.outputs.reserve(current.lower.width);
      for (std::size_t r = 0; r < current.lower.width; ++r) {
        bounds.outputs.push_back(
            NeuronBounds{extract_lane(current.lower, r, l), extract_lane(current.upper, r, l)});
      }
      bounds.output_box = concretize_output_box(bounds.outputs, bounds.input);
      results.push_back(std::move(bounds));
    }
  }
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
