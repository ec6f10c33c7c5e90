#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "interval/rounding.hpp"

#define NNCS_KERN_BACKEND portable
#include "nn/kernels_impl.inl"
#undef NNCS_KERN_BACKEND

namespace nncs::kern {

#ifdef NNCS_HAVE_AVX2
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma -ffp-contract=off).
namespace avx2 {
void symbolic_affine_layer_impl(const PackedLayer& layer, const SymbolicForms& in,
                                SymbolicForms& out);
void symbolic_relu_bounds_impl(const SymbolicForms& forms, const Box& input, double* lower,
                               double* upper);
void zonotope_affine_layer_impl(const PackedLayer& layer, const ZonotopeForms& in,
                                ZonotopeForms& out);
}  // namespace avx2
#endif

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool cpu_supports_avx2() {
#if defined(NNCS_HAVE_AVX2) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa isa = cpu_supports_avx2() ? Isa::kAvx2 : Isa::kPortable;
  return isa;
}

PackedNetwork pack_network(const Network& net) {
  PackedNetwork packed;
  packed.input_dim = net.input_dim();
  std::size_t stride = packed.input_dim;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const Layer& layer = net.layers()[li];
    const auto finite = [](double v) { return std::isfinite(v); };
    if (!std::all_of(layer.weights.data().begin(), layer.weights.data().end(), finite) ||
        !std::all_of(layer.biases.begin(), layer.biases.end(), finite)) {
      throw std::invalid_argument("pack_network: layer " + std::to_string(li) +
                                  " has a weight or bias that is not finite");
    }
    stride = std::max(stride, layer.weights.rows());
    packed.hidden_rows += layer.weights.rows();
    packed.symbolic_macs += 2 * layer.weights.rows() * layer.weights.cols() * packed.input_dim;
  }
  packed.hidden_rows -= net.output_dim();
  packed.stride = stride = (stride + kNeuronBlock - 1) / kNeuronBlock * kNeuronBlock;
  for (const Layer& layer : net.layers()) {
    const std::size_t rows = layer.weights.rows();
    const std::size_t cols = layer.weights.cols();
    PackedLayer& out = packed.layers.emplace_back(PackedLayer{
        rows, cols, stride, std::vector<double>(cols * stride, 0.0), layer.biases});
    out.biases.resize(stride, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        out.weights[c * stride + r] = layer.weights(r, c);
      }
    }
  }
  return packed;
}

void symbolic_affine_layer(const PackedLayer& layer, const SymbolicForms& in,
                           SymbolicForms& out, Isa isa) {
  const auto fits = [&](const SymbolicSide& side) {
    return side.coeffs.size() >= in.n_in * in.stride && side.constant.size() >= in.stride &&
           side.err.size() >= in.stride;
  };
  if (layer.cols != in.width || layer.stride != in.stride || !fits(in.lower) ||
      !fits(in.upper) || !fits(out.lower) || !fits(out.upper)) {
    throw std::invalid_argument("symbolic_affine_layer: shape mismatch");
  }
  out.width = layer.rows;
  out.stride = in.stride;
  out.n_in = in.n_in;
#ifdef NNCS_HAVE_AVX2
  if (isa == Isa::kAvx2) {
    avx2::symbolic_affine_layer_impl(layer, in, out);
    return;
  }
#else
  (void)isa;
#endif
  portable::symbolic_affine_layer_impl(layer, in, out);
}

namespace {

/// The lower (kUpper false) or upper bound of `Interval{c} * x` for c != 0,
/// bit for bit, in `operator*`'s order of cases.
template <bool kUpper>
double product_bound(double c, const Interval& x) {
  if (c == 1.0) {
    return kUpper ? x.hi() : x.lo();
  }
  if (x.lo() == x.hi() && x.lo() == 1.0) {
    return c;
  }
  if (x.lo() == x.hi() && x.lo() == 0.0 && std::isfinite(c)) {
    return 0.0;
  }
  const double p = std::isnan(c * x.lo()) ? 0.0 : c * x.lo();
  const double q = std::isnan(c * x.hi()) ? 0.0 : c * x.hi();
  return kUpper ? rnd::next_up(std::max(p, q)) : rnd::next_down(std::min(p, q));
}

}  // namespace

template <bool kUpper>
double concretize_side(const double* coeffs, std::size_t step, double constant, double err,
                       const Box& input) {
  double acc = constant;
  for (std::size_t i = 0; i < input.dim(); ++i) {
    const double c = coeffs[i * step];
    if (c != 0.0) {
      const double p = product_bound<kUpper>(c, input[i]);
      acc = kUpper ? rnd::add_up(acc, p) : rnd::add_down(acc, p);
    }
  }
  const double delta = err + 1e-12;
  if (delta < 0.0 || std::isnan(delta)) {
    throw std::invalid_argument("Interval::inflated: negative delta");
  }
  return kUpper ? rnd::add_up(acc, delta) : rnd::sub_down(acc, delta);
}

template double concretize_side<false>(const double*, std::size_t, double, double, const Box&);
template double concretize_side<true>(const double*, std::size_t, double, double, const Box&);

void symbolic_relu_bounds(const SymbolicForms& forms, const Box& input, double* lower,
                          double* upper, Isa isa) {
  if (input.dim() != forms.n_in || forms.stride % kNeuronBlock != 0 ||
      forms.width > forms.stride) {
    throw std::invalid_argument("symbolic_relu_bounds: shape mismatch");
  }
#ifdef NNCS_HAVE_AVX2
  if (isa == Isa::kAvx2) {
    avx2::symbolic_relu_bounds_impl(forms, input, lower, upper);
    return;
  }
#else
  (void)isa;
#endif
  portable::symbolic_relu_bounds_impl(forms, input, lower, upper);
}

std::size_t zonotope_affine_layer(const PackedLayer& layer, const ZonotopeForms& in,
                                  ZonotopeForms& out, Isa isa) {
  if (layer.cols != in.width || layer.stride != in.stride || in.own.size() < in.width ||
      out.coeffs.size() < in.n_slots * in.stride || out.center.size() < in.stride ||
      out.err.size() < in.stride) {
    throw std::invalid_argument("zonotope_affine_layer: shape mismatch");
  }
  if (in.shared > in.n_slots) {
    throw std::invalid_argument("zonotope_affine_layer: shared slots past the slot count");
  }
  std::size_t next_own = in.shared;  // the lowest slot the next own slot may be
  std::size_t slots = 0;             // Σ over the columns that are not dead
  for (std::size_t c = 0; c < in.width; ++c) {
    const std::size_t own = in.own[c];
    if (own == ZonotopeForms::kDead) {
      continue;
    }
    slots += in.shared;
    if (own != ZonotopeForms::kSharedOnly) {
      if (own < next_own || own >= in.n_slots) {
        throw std::invalid_argument("zonotope_affine_layer: own slot out of range or order");
      }
      next_own = own + 1;
      ++slots;
    }
  }
#ifdef NNCS_HAVE_AVX2
  if (isa == Isa::kAvx2) {
    avx2::zonotope_affine_layer_impl(layer, in, out);
  } else {
    portable::zonotope_affine_layer_impl(layer, in, out);
  }
#else
  (void)isa;
  portable::zonotope_affine_layer_impl(layer, in, out);
#endif
  out.width = layer.rows;
  out.stride = in.stride;
  out.n_slots = in.n_slots;
  out.shared = in.n_slots;
  out.own.assign(layer.rows, ZonotopeForms::kSharedOnly);
  return layer.rows * slots;
}

void dense_affine(const Matrix& weights, const Vec& biases, const double* x, double* out) {
  const std::size_t rows = weights.rows();
  const std::size_t cols = weights.cols();
  std::size_t r = 0;
  // Four rows per block share the streamed x loads; each row's accumulator
  // runs left to right exactly like the naive loop, so results are
  // bit-identical to it.
  for (; r + 4 <= rows; r += 4) {
    const double* w0 = weights.row_data(r);
    const double* w1 = weights.row_data(r + 1);
    const double* w2 = weights.row_data(r + 2);
    const double* w3 = weights.row_data(r + 3);
    double a0 = biases[r];
    double a1 = biases[r + 1];
    double a2 = biases[r + 2];
    double a3 = biases[r + 3];
    for (std::size_t c = 0; c < cols; ++c) {
      const double xc = x[c];
      a0 += w0[c] * xc;
      a1 += w1[c] * xc;
      a2 += w2[c] * xc;
      a3 += w3[c] * xc;
    }
    out[r] = a0;
    out[r + 1] = a1;
    out[r + 2] = a2;
    out[r + 3] = a3;
  }
  for (; r < rows; ++r) {
    const double* wr = weights.row_data(r);
    double acc = biases[r];
    for (std::size_t c = 0; c < cols; ++c) {
      acc += wr[c] * x[c];
    }
    out[r] = acc;
  }
}

}  // namespace nncs::kern
