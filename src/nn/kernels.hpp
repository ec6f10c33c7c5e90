#pragma once

#include <cstddef>
#include <vector>

#include "interval/box.hpp"
#include "nn/network.hpp"

/// Vectorized layer kernels for the NN abstract transformers.
///
/// The design constraint that shapes everything here is *bit-exactness*:
/// canonical reports are byte-compared against the scalar propagators, so a
/// kernel may reorganize memory and run several forms at once, but per form
/// it must execute the exact double-precision operation sequence of
/// `symbolic_propagate` / `zonotope_propagate`. Each SIMD lane therefore
/// runs one form's scalar operations in the scalar order, so any vector
/// width — including the AVX2 path — gives bitwise-identical results.
///
/// Both sweeps vectorize *across one query's neurons* (lane = neuron) and
/// store a query's forms neuron-minor (`coeffs[k·stride + neuron]`, k an
/// input coefficient or a noise-symbol slot), so a query fills the SIMD
/// width on its own and a batch of one costs nothing extra: ACAS Xu sends
/// each advisory to its own network, one query per call. The blocks differ
/// because the per-neuron state differs. A symbolic neuron carries a lower
/// and an upper form, each with its own |·| sum, and picks their sources by
/// its weight's sign: a block of 8 keeps weights, sign and zero masks and
/// four |·| sums in ten ymm registers, and cruise control's 24-wide layers
/// are exactly three blocks where blocks of 16 would pad them to 32. A
/// zonotope neuron carries one form and two |·| sums, so its block is 16
/// (four ymm per accumulator).
namespace nncs::kern {

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

/// Neurons per block of the symbolic sweep (see file comment): the AVX2
/// body keeps a block's lower and upper |·| sums in two 256-bit registers
/// each.
inline constexpr std::size_t kSymbolicBlock = 8;

/// Neurons per block of the zonotope sweep. A query's neuron columns are
/// padded to a multiple of this; the AVX2 body keeps each per-neuron
/// accumulator of one block in four 256-bit registers.
inline constexpr std::size_t kNeuronBlock = 16;
static_assert(kNeuronBlock % kSymbolicBlock == 0);

/// A layer's weights, transposed and padded for the neuron-minor sweeps:
/// `weights[c·stride + r]` = W(r, c) and `biases[r]`, both zero for the
/// padding rows `r >= rows`.
struct PackedLayer {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;
  std::vector<double> weights;
  std::vector<double> biases;
};

/// A network packed for both batched transformers, once, when the
/// controller that owns it is built; threads then share it read-only.
struct PackedNetwork {
  /// Neuron stride of every layer's forms: the largest of the input
  /// dimension and every layer's row count, rounded up to kNeuronBlock.
  std::size_t stride = 0;
  std::size_t input_dim = 0;
  /// Rows of every layer but the last: the most fresh noise-symbol slots a
  /// zonotope query can take.
  std::size_t hidden_rows = 0;
  /// Multiply-adds of one symbolic query (`nn.symbolic_macs`).
  std::size_t symbolic_macs = 0;
  std::vector<PackedLayer> layers;
};

/// Pack every layer of `net` at one common stride. Throws
/// std::invalid_argument, naming the layer, for a weight or bias that is
/// not finite: the sweeps rely on w·0 being ±0.
[[nodiscard]] PackedNetwork pack_network(const Network& net);

/// One side (lower or upper) of a query's symbolic bound forms:
/// `coeffs[i·stride + n]` is neuron n's coefficient on network input i,
/// `constant[n]` and `err[n]` its constant and rounding-error term.
struct SymbolicSide {
  std::vector<double> coeffs;
  std::vector<double> constant;
  std::vector<double> err;
};

/// One symbolic query's affine bound forms (symbolic_prop's `AffineForm`),
/// a lower and an upper form per neuron, stored neuron-minor. Coefficients
/// are never −0.0. Columns from `width` up to `stride` are padding. The
/// caller sizes every buffer to `n_in·stride` (coeffs) or `stride` entries.
struct SymbolicForms {
  std::size_t width = 0;   ///< live neurons
  std::size_t stride = 0;  ///< padded neuron count, a multiple of kNeuronBlock
  std::size_t n_in = 0;    ///< network inputs: coefficients per form
  SymbolicSide lower;
  SymbolicSide upper;
};

/// Symbolic affine sweep over one query: per output neuron r, exactly the
/// scalar `symbolic_propagate` inner loop
///   lower_r = upper_r = bias_r; per column c with w = W(r,c) != 0:
///   axpy(lower_r, w, w >= 0 ? lower_c : upper_c), and upper_r likewise
/// — each axpy running the coefficients in index order (every update
/// feeding its |·| sum), then the constant, then
/// `err += |w|·src_err + kCoeffSlack·sum`. A block of kSymbolicBlock
/// neurons runs in SIMD, each picking its sources by its own weight's sign.
/// A zero weight multiplies sources masked to 0.0, so it adds ±0 to every
/// coefficient, which changes no bit of a coefficient that is never −0.0,
/// even where the source is NaN; and the neuron keeps its constant (a bias
/// may be −0.0) and error term, as the scalar loop skips that weight. No
/// ReLU. Sets `out`'s width, stride and input count.
void symbolic_affine_layer(const PackedLayer& layer, const SymbolicForms& in,
                           SymbolicForms& out, Isa isa);

/// `concretize(form, input).lo()` (kUpper false) or `.hi()` (symbolic_prop.hpp),
/// bit for bit, without the other bound, for the form with coefficients
/// `coeffs[i·step]`: the constant, then each nonzero coefficient's product
/// bound in index order, then `inflated(err + 1e-12)`, which throws
/// std::invalid_argument on a negative or NaN delta.
template <bool kUpper>
[[nodiscard]] double concretize_side(const double* coeffs, std::size_t step, double constant,
                                     double err, const Box& input);

/// The ReLU stage's pre-activation bounds: for every neuron r below
/// `forms.width` rounded up to kSymbolicBlock, lower[r] = `concretize_side`
/// `<false>` of its lower form and upper[r] = `<true>` of its upper form,
/// bit for bit, throwing as it does. The AVX2 body bounds four neurons per
/// vector and takes the product bound's cases per lane, rounding by integer
/// steps on the bit pattern. The padding columns of the last block must
/// hold valid forms (the sweep leaves zeros there).
void symbolic_relu_bounds(const SymbolicForms& forms, const Box& input, double* lower,
                          double* upper, Isa isa);

/// One zonotope query's affine-arithmetic forms (the zonotope domain's
/// `Affine`), one per neuron, stored neuron-minor: `coeffs[s·stride + n]` is
/// neuron n's coefficient on noise-symbol slot s. Which symbol a slot holds
/// is the caller's business (zonotope_prop.cpp); slot order must be symbol
/// order. A form without a term on a slot holds ±0.0 there; a layer's output
/// rows start at +0.0 and never become −0.0. Columns from `width` up to
/// `stride` are padding; in a layer's output, those below `width` rounded up
/// to 4 hold Affine{0} and the rest are never written.
///
/// `shared` and `own` record which slots each column can hold, so the sweep
/// skips the rest. Every column that is not dead may hold the shared slots
/// [0, shared); `own[c]` is kSharedOnly, kDead (no terms, centre and error
/// term exactly 0) or the one slot at or past `shared` that column c also
/// holds. Own slots increase with the column, and every other slot at or
/// past `shared` is exactly 0 in that column. After a ReLU, the shared slots
/// are those that existed before it and an own slot is an unstable neuron's
/// fresh symbol; a layer's output has every column shared over every slot.
struct ZonotopeForms {
  static constexpr std::size_t kSharedOnly = static_cast<std::size_t>(-1);
  static constexpr std::size_t kDead = static_cast<std::size_t>(-2);

  std::size_t width = 0;    ///< live neurons
  std::size_t stride = 0;   ///< padded neuron count, a multiple of kNeuronBlock
  std::size_t n_slots = 0;  ///< active slot rows
  std::size_t shared = 0;   ///< slots every column that is not dead may hold
  /// Sized by the caller to the final slot count times `stride`, so appending
  /// a slot never reallocates; rows at and past `n_slots` hold no data.
  std::vector<double> coeffs;
  std::vector<double> center;    ///< `stride` entries
  std::vector<double> err;       ///< `stride` entries
  std::vector<std::size_t> own;  ///< `width` entries: see above

  [[nodiscard]] double* slot(std::size_t s) { return coeffs.data() + s * stride; }
  [[nodiscard]] const double* slot(std::size_t s) const { return coeffs.data() + s * stride; }
};

/// Zonotope affine sweep over one query: per output neuron r, exactly the
/// scalar `zonotope_propagate` inner loop
///   acc = Affine{bias_r}; per column c with w = W(r,c) != 0: acc += w * in_c
/// — `operator*(double, Affine)` then `operator+`, whose two |·| sums run
/// interleaved per slot (bitwise equal, since they never interact). A block
/// of kNeuronBlock neurons runs in SIMD; a layer's last block runs only the
/// ⌈rows/4⌉ quads of 4 neurons it needs. Per column the block does only the
/// work `in`'s slot record allows: `acc += w·x` on the shared slots and the
/// column's own slot; on earlier columns' own slots, which the column holds
/// as exact zeros, only |acc| into the merged sum; nothing on later slots,
/// whose acc is still +0; and for a dead column no slot work, its merged sum
/// being the previous column's, carried bit for bit. Each skipped operation
/// adds ±0 to a sum that starts at +0 or multiplies a finite weight by an
/// exact 0, so the results stay the scalar loop's bit for bit. A zero weight
/// still runs the slot work, where adding w·x = ±0 to a coefficient that is never
/// −0.0 changes no bit, but the neuron keeps its center and error term, as
/// the scalar loop skips that weight; padding neurons thus stay Affine{0}.
/// Weights (see `pack_network`) and forms must be finite. No ReLU. Sets
/// `out`'s width, stride and slot count, and its record to every column
/// shared over every slot; its buffers must already hold `in.n_slots` rows.
/// Throws std::invalid_argument on a shape mismatch or a malformed record
/// (`shared` past `n_slots`, an own slot out of range or out of order).
/// Returns the multiply-adds performed: rows × Σ over the columns that are
/// not dead of (shared slots + own slot).
std::size_t zonotope_affine_layer(const PackedLayer& layer, const ZonotopeForms& in,
                                  ZonotopeForms& out, Isa isa);

/// Blocked concrete affine map out = W·x + b: rows are processed in blocks
/// of four sharing the streamed `x` loads, but each row keeps the scalar
/// left-to-right accumulation `acc = b_r; acc += W(r,c)·x_c` so results are
/// bit-identical to the naive loop (`Network::eval` routes through this).
void dense_affine(const Matrix& weights, const Vec& biases, const double* x, double* out);

}  // namespace nncs::kern
