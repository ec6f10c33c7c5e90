#pragma once

#include <cstddef>
#include <vector>

#include "nn/network.hpp"

/// Vectorized layer kernels for the NN abstract transformers.
///
/// The design constraint that shapes everything here is *bit-exactness*:
/// canonical reports are byte-compared against the scalar propagators, so a
/// kernel may reorganize memory and run several forms at once, but per form
/// it must execute the exact double-precision operation sequence of
/// `symbolic_propagate` / `zonotope_propagate`. Each SIMD lane therefore
/// runs one form's scalar operations in the scalar order, so any vector
/// width — including the AVX2 path — gives bitwise-identical results. The
/// two sweeps put different things in a lane:
///
/// - The symbolic sweep vectorizes *across cells* (lane = cell): every
///   cell's forms are over the same n input coefficients, so one query's
///   neuron rows line up with its batch-mates'. Layout is structure-of-
///   arrays over the batch, lane-minor (`coeffs[(r·n_in + i)·lanes + l]`).
/// - The zonotope sweep vectorizes *across one query's neurons* (lane =
///   neuron): each query carries its own noise symbols, so batch-mates'
///   coefficient columns do not line up, while one query's neurons all
///   share its symbol slots. Layout is neuron-minor
///   (`coeffs[slot·stride + neuron]`), so a query fills the SIMD width on
///   its own and a batch of one costs nothing extra.
namespace nncs::kern {

/// Hard cap on the number of cells per symbolic kernel call; callers chunk
/// larger groups. Bounds the SoA working set (keeps a full symbolic layer
/// sweep inside L2).
inline constexpr std::size_t kMaxLanes = 64;

/// Instruction-set back end for the kernels. Both produce bitwise-identical
/// results (see file comment); the CPU alone picks one (`active_isa`), and
/// the batched transformers take it as an argument so tests can run both.
enum class Isa {
  kPortable,  ///< plain C++, auto-vectorized at the baseline ISA
  kAvx2,      ///< explicit AVX2 path (x86-64 with AVX2+FMA at runtime)
};

[[nodiscard]] const char* to_string(Isa isa);

/// True when this binary carries the AVX2 kernels *and* the CPU reports
/// AVX2+FMA at runtime.
[[nodiscard]] bool cpu_supports_avx2();

/// The process-wide kernel back end: AVX2 when `cpu_supports_avx2()`, else
/// portable, detected once on first use.
[[nodiscard]] Isa active_isa();

/// One side (lower or upper) of a batch of affine bound forms: `width`
/// neuron rows, each holding `n_in` input coefficients, a constant and a
/// rounding-error term per lane. Rows are contiguous — all lower-bound rows
/// live in one buffer, all upper-bound rows in another (`SymbolicBatch`).
struct AffineBatch {
  std::size_t width = 0;
  std::size_t n_in = 0;
  std::size_t lanes = 0;
  /// `coeffs[(r * n_in + i) * lanes + l]`: row r, input coefficient i, lane l.
  std::vector<double> coeffs;
  /// `constant[r * lanes + l]`, `err[r * lanes + l]`.
  std::vector<double> constant;
  std::vector<double> err;

  void resize(std::size_t new_width, std::size_t new_n_in, std::size_t new_lanes);

  [[nodiscard]] double* row_coeffs(std::size_t r) { return coeffs.data() + r * n_in * lanes; }
  [[nodiscard]] const double* row_coeffs(std::size_t r) const {
    return coeffs.data() + r * n_in * lanes;
  }
};

/// Lower and upper affine-form batches for one layer of activations.
struct SymbolicBatch {
  AffineBatch lower;
  AffineBatch upper;

  void resize(std::size_t width, std::size_t n_in, std::size_t lanes);
};

/// Batched symbolic affine sweep: per lane and output row r, exactly the
/// scalar propagator's
///   lower_r/upper_r = bias_r; then per column c with w = W(r,c) != 0:
///   axpy(±side, w, in_c side)   (coeffs in index order, then constant,
///                                then the kCoeffSlack error update)
/// — the hot loop of the whole verifier. The AVX2 back end runs the lane
/// loop in 256-bit registers (explicit intrinsics, no value-changing FMA).
void symbolic_affine_layer(const Layer& layer, const SymbolicBatch& in, SymbolicBatch& out,
                           Isa isa);

/// Neurons per block of the zonotope sweep. A query's neuron columns are
/// padded to a multiple of this; the AVX2 body keeps each per-neuron
/// accumulator of one block in four 256-bit registers.
inline constexpr std::size_t kNeuronBlock = 16;

/// One zonotope query's affine-arithmetic forms (the zonotope domain's
/// `Affine`), one per neuron, stored neuron-minor: `coeffs[s·stride + n]` is
/// neuron n's coefficient on noise-symbol slot s. Which symbol a slot holds
/// is the caller's business (zonotope_prop.cpp); slot order must be symbol
/// order. A form without a term on a slot holds ±0.0 there; a layer's output
/// rows start at +0.0 and never become −0.0. Columns from `width` up to
/// `stride` are padding; in a layer's output they hold Affine{0}.
struct ZonotopeForms {
  std::size_t width = 0;    ///< live neurons
  std::size_t stride = 0;   ///< padded neuron count, a multiple of kNeuronBlock
  std::size_t n_slots = 0;  ///< active slot rows
  /// Sized by the caller to the final slot count times `stride`, so appending
  /// a slot never reallocates; rows at and past `n_slots` hold no data.
  std::vector<double> coeffs;
  std::vector<double> center;  ///< `stride` entries
  std::vector<double> err;     ///< `stride` entries

  [[nodiscard]] double* slot(std::size_t s) { return coeffs.data() + s * stride; }
  [[nodiscard]] const double* slot(std::size_t s) const { return coeffs.data() + s * stride; }
};

/// A layer's weights, transposed and padded for the zonotope sweep:
/// `weights[c·stride + r]` = W(r, c) and `biases[r]`, both zero for the
/// padding rows `r >= rows`.
struct PackedLayer {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;
  std::vector<double> weights;
  std::vector<double> biases;
};

/// Pack `layer` for a sweep whose forms have neuron stride `stride`
/// (a multiple of kNeuronBlock, at least the layer's row count).
[[nodiscard]] PackedLayer pack_layer(const Layer& layer, std::size_t stride);

/// Zonotope affine sweep over one query: per output neuron r, exactly the
/// scalar `zonotope_propagate` inner loop
///   acc = Affine{bias_r}; per column c with w = W(r,c) != 0: acc += w * in_c
/// — `operator*(double, Affine)` then `operator+`, whose two |·| sums run
/// interleaved per slot (bitwise equal, since they never interact). A block
/// of kNeuronBlock neurons runs in SIMD. A zero weight still runs the slot
/// loop, where adding w·x = ±0 to a coefficient that is never −0.0 changes
/// no bit, but the neuron keeps its center and error term, as the scalar
/// loop skips that weight; padding neurons thus stay Affine{0}. Weights and
/// forms must be finite. No ReLU. Sets `out`'s width, stride and slot count;
/// its buffers must already hold `in.n_slots` rows.
void zonotope_affine_layer(const PackedLayer& layer, const ZonotopeForms& in,
                           ZonotopeForms& out, Isa isa);

/// Blocked concrete affine map out = W·x + b: rows are processed in blocks
/// of four sharing the streamed `x` loads, but each row keeps the scalar
/// left-to-right accumulation `acc = b_r; acc += W(r,c)·x_c` so results are
/// bit-identical to the naive loop (`Network::eval` routes through this).
void dense_affine(const Matrix& weights, const Vec& biases, const double* x, double* out);

}  // namespace nncs::kern
