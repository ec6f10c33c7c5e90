#pragma once

#include <vector>

#include "interval/box.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"

namespace nncs {

/// Affine function of the network input:  x ↦ coeffs·x + constant ± err.
/// `err` accumulates the worst-case double-precision rounding of the
/// coefficient arithmetic (a few ulps of the running magnitudes per
/// operation) so concretized bounds stay conservative.
struct AffineForm {
  Vec coeffs;
  double constant = 0.0;
  double err = 0.0;
};

/// Sound lower and upper affine bounds for one neuron:
///   lower(x) <= neuron(x) <= upper(x)  for all x in the analyzed box.
struct NeuronBounds {
  AffineForm lower;
  AffineForm upper;
};

/// Result of the symbolic propagation: per-output affine bounds plus their
/// interval concretization over the analyzed input box.
struct SymbolicBounds {
  Box input;
  std::vector<NeuronBounds> outputs;
  Box output_box;
};

/// Symbolic (affine-bound) abstract transformer for ReLU networks — the
/// ReluVal/DeepPoly family of §6.6. Affine layers propagate the bounds
/// exactly; an unstable ReLU with pre-activation range [l, u] (l < 0 < u) is
/// relaxed to
///   upper: λ·up(x) + μ   with  λ = u/(u−l), μ = −λ·l   (chord),
///   lower: α·low(x)      with  α ∈ {0, 1} chosen by the larger-side
///                        heuristic (α = 1 if u >= −l else 0).
///
/// Soundness note: coefficient arithmetic runs in double precision with the
/// worst-case rounding tracked in each form's `err` term (a few ulps of the
/// running magnitudes per operation); concretization evaluates the forms in
/// outward-rounded interval arithmetic and adds `err`. The plain interval
/// transformer remains the bitwise-rigorous fallback.
SymbolicBounds symbolic_propagate(const Network& net, const Box& input);

/// Batched transformer over a network packed once (`kern::pack_network`):
/// result i is bit-identical to `symbolic_propagate(net, inputs[i])` —
/// forms, error terms and output box alike. Each query runs on its own in
/// neuron-minor buffers that the calling thread reuses (`nn/kernels.hpp`);
/// the SIMD width covers a block of one query's neurons in the layer sweep
/// and in the ReLU stage's one-sided bounds (`kern::symbolic_relu_bounds`).
/// Tests pass `isa` to run both kernel back ends.
std::vector<SymbolicBounds> symbolic_propagate_batch(const kern::PackedNetwork& net,
                                                     const std::vector<Box>& inputs,
                                                     kern::Isa isa = kern::active_isa());

/// Sound interval enclosure of an affine form over a box (outward-rounded,
/// slack-inflated).
Interval concretize(const AffineForm& form, const Box& input);

/// Concretize per-neuron bounds over `input` into an output box: dimension i
/// is [concretize(lower_i).lo, concretize(upper_i).hi]. If the two
/// concretizations cross (lower's infimum above upper's supremum — only
/// possible through rounding slack, never for truly sound forms), the
/// dimension falls back to the hull of both enclosures, which is a
/// guaranteed enclosure either way. Shared by `symbolic_propagate` and the
/// NN query cache's containment reuse (re-concretizing stored forms on a
/// tighter box).
Box concretize_output_box(const std::vector<NeuronBounds>& outputs, const Box& input);

/// Enclosure of the *difference* output_i − output_j over the input box,
/// from the affine bounds (tighter than subtracting concretized intervals
/// because shared input dependencies cancel symbolically): the lower form
/// lower_i − upper_j and the upper form upper_i − lower_j, each built as
/// `zero_form; axpy(+1, ·); axpy(−1, ·)` in a stack buffer and concretized
/// on the one side that is read (`kern::concretize_side`).
Interval output_difference(const SymbolicBounds& bounds, std::size_t i, std::size_t j);

/// `output_difference(bounds, i, j).hi() < 0.0` (the larger side), computing
/// the lower side only when the upper one is negative or NaN. A NaN side
/// throws std::invalid_argument as there, but only when it is computed.
bool output_difference_negative(const SymbolicBounds& bounds, std::size_t i, std::size_t j);

}  // namespace nncs
