#pragma once

#include <cstddef>
#include <vector>

#include "nn/network.hpp"

/// Batched, vectorization-friendly layer kernels for the NN abstract
/// transformers (ROADMAP item "SIMD + batched propagation on the NN hot
/// path").
///
/// The design constraint that shapes everything here is *bit-exactness*:
/// canonical reports are byte-compared against the scalar propagators, so a
/// batched sweep may reorganize memory and process several cells at once,
/// but per cell it must execute the exact double-precision operation
/// sequence of `symbolic_propagate` / `zonotope_propagate`. We therefore
/// vectorize *across* cells (SIMD lane = cell) instead of across neurons:
/// each lane performs the scalar algorithm's operations in the scalar
/// algorithm's order, so any vector width — including the AVX2 path —
/// produces bitwise-identical results.
///
/// Layout: structure-of-arrays over the batch. For `lanes` cells propagated
/// together, a per-neuron quantity is stored as `lanes` consecutive doubles
/// (lane-minor), so the innermost loop of every kernel walks contiguous
/// memory with a uniform (weight-derived) scalar operand.
namespace nncs::kern {

/// Hard cap on the number of cells per batched kernel call; callers chunk
/// larger groups. Bounds the SoA working set (keeps a full symbolic layer
/// sweep inside L2) and the kernels' stack scratch.
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

/// A batch of affine-arithmetic forms (the zonotope domain's `Affine`),
/// SoA over the lanes: `width` forms per lane, each with a center, an
/// anonymous error term, and up to `capacity` noise-symbol coefficient
/// slots of which `n_slots` are active. Slot -> noise-symbol-id mapping is
/// per lane and owned by the orchestrator (zonotope_prop.cpp); the kernel
/// only sees dense slot columns. Inactive/absent coefficients are +0.0,
/// which the scalar `Affine` term-dropping semantics treat identically
/// (proved by the slot-zero invariant: acc slots never hold -0.0).
struct AffineFormBatch {
  std::size_t width = 0;     ///< forms (neurons) per lane
  std::size_t capacity = 0;  ///< allocated slot columns (>= n_slots, stable)
  std::size_t n_slots = 0;   ///< active slot columns
  std::size_t lanes = 0;
  /// `coeffs[(f * capacity + s) * lanes + l]`: form f, slot s, lane l.
  std::vector<double> coeffs;
  /// `center[f * lanes + l]`, `err[f * lanes + l]`.
  std::vector<double> center;
  std::vector<double> err;

  /// Resize and zero-fill. `capacity` must be sized by the caller to the
  /// final slot count (input slots + one per potentially-unstable ReLU) so
  /// the layout never reshuffles mid-propagation.
  void resize(std::size_t new_width, std::size_t new_capacity, std::size_t new_lanes);

  [[nodiscard]] double* form_coeffs(std::size_t f) {
    return coeffs.data() + f * capacity * lanes;
  }
  [[nodiscard]] const double* form_coeffs(std::size_t f) const {
    return coeffs.data() + f * capacity * lanes;
  }
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

/// Batched affine-arithmetic layer sweep (zonotope domain): per lane and
/// output row r, exactly the scalar `zonotope_propagate` inner loop
///   acc = Affine{bias_r}; per column c with w = W(r,c) != 0:
///   acc += w * in_c
/// where `w * in_c` replicates `operator*(double, Affine)` (per-slot scale
/// feeding a running |·| sum, then the error update) and `acc += tmp`
/// replicates `operator+` (per-slot merge feeding a second independent |·|
/// sum, then the error update) — two abs accumulators, interleaved per slot,
/// which is bitwise equal to the scalar tmp-then-merge order because the
/// accumulators never interact. ReLU is NOT applied here; the orchestrator
/// extracts lanes and runs the scalar `Affine::relu`. Weights are assumed
/// finite (the scalar affine path produces NaN on infinite weights anyway).
/// `out.n_slots` is set to `in.n_slots`.
void affine_form_layer(const Layer& layer, const AffineFormBatch& in, AffineFormBatch& out,
                       Isa isa);

/// Blocked concrete affine map out = W·x + b: rows are processed in blocks
/// of four sharing the streamed `x` loads, but each row keeps the scalar
/// left-to-right accumulation `acc = b_r; acc += W(r,c)·x_c` so results are
/// bit-identical to the naive loop (`Network::eval` routes through this).
void dense_affine(const Matrix& weights, const Vec& biases, const double* x, double* out);

}  // namespace nncs::kern
