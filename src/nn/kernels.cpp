#include "nn/kernels.hpp"

#include <stdexcept>

#define NNCS_KERN_BACKEND portable
#include "nn/kernels_impl.inl"
#undef NNCS_KERN_BACKEND

namespace nncs::kern {

#ifdef NNCS_HAVE_AVX2
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma -ffp-contract=off).
namespace avx2 {
void symbolic_affine_layer_impl(const PackedLayer& layer, const SymbolicForms& in,
                                SymbolicForms& out);
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

PackedLayer pack_layer(const Layer& layer, std::size_t stride) {
  const std::size_t rows = layer.weights.rows();
  const std::size_t cols = layer.weights.cols();
  if (stride % kNeuronBlock != 0 || stride < rows) {
    throw std::invalid_argument("pack_layer: stride must be a block multiple >= rows");
  }
  PackedLayer packed{rows, cols, stride, std::vector<double>(cols * stride, 0.0),
                     std::vector<double>(stride, 0.0)};
  for (std::size_t r = 0; r < rows; ++r) {
    const double* wrow = layer.weights.row_data(r);
    for (std::size_t c = 0; c < cols; ++c) {
      packed.weights[c * stride + r] = wrow[c];
    }
    packed.biases[r] = layer.biases[r];
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

void zonotope_affine_layer(const PackedLayer& layer, const ZonotopeForms& in,
                           ZonotopeForms& out, Isa isa) {
  if (layer.cols != in.width || layer.stride != in.stride ||
      out.coeffs.size() < in.n_slots * in.stride || out.center.size() < in.stride ||
      out.err.size() < in.stride) {
    throw std::invalid_argument("zonotope_affine_layer: shape mismatch");
  }
  out.width = layer.rows;
  out.stride = in.stride;
  out.n_slots = in.n_slots;
#ifdef NNCS_HAVE_AVX2
  if (isa == Isa::kAvx2) {
    avx2::zonotope_affine_layer_impl(layer, in, out);
    return;
  }
#else
  (void)isa;
#endif
  portable::zonotope_affine_layer_impl(layer, in, out);
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
