#pragma once

#include <vector>

#include "interval/affine.hpp"
#include "interval/affine_set.hpp"
#include "interval/box.hpp"
#include "nn/kernels.hpp"
#include "nn/network.hpp"

namespace nncs {

/// Result of the zonotope (affine-arithmetic) network transformer: one
/// affine form per output neuron, sharing input and ReLU noise symbols, plus
/// the concretized output box.
struct ZonotopeBounds {
  std::vector<Affine> outputs;
  Box output_box;
};

/// Affine-arithmetic abstract transformer for ReLU networks — the
/// "affine arithmetics" alternative the paper names in §6.2 [15] — on the
/// sparse scalar `Affine` forms. Affine layers are exact on the noise
/// symbols (linear correlations survive); unstable ReLUs use the minimal
/// zonotope relaxation with one fresh noise symbol each. Typically tighter
/// than plain intervals and incomparable with the symbolic affine-bound
/// domain (which keeps per-neuron lower AND upper input-space bounds).
/// No production path calls these two overloads: they are the bit-identity
/// reference of `zonotope_propagate_batch`'s tests.
ZonotopeBounds zonotope_propagate(const Network& net, const Box& input);

/// Relational variant: propagate affine-form inputs directly, preserving
/// whatever correlations the caller's forms carry (e.g. a plant-state
/// zonotope threaded through Pre#). `source` must be the noise source the
/// input forms were built from (or a copy of it) so the fresh ReLU symbols
/// cannot collide with the input symbols. The boxed overload above is the
/// special case where the inputs are freshly lifted independent variables.
ZonotopeBounds zonotope_propagate(const Network& net, std::vector<Affine> inputs,
                                  NoiseSource& source);

/// The zonotope transformer of every controller query, over a network
/// packed once (`kern::pack_network`): propagate each affine set on its own
/// through the neuron-minor layer sweep (`kern::zonotope_affine_layer`),
/// which runs a block of one query's neurons in SIMD, so a batch of one
/// fills the vector width as well as a larger one does. Result i is
/// bit-identical to
///   NoiseSource scratch = inputs[i]->noise();
///   zonotope_propagate(net, inputs[i]->components(), scratch)
/// — centers, coefficients, error terms, noise-symbol ids, and output box
/// alike — because each neuron executes the scalar affine-arithmetic
/// operation sequence in the scalar order, the ReLU replays `Affine::range`
/// and `Affine::relu` in place on the neuron's column, and each unstable
/// neuron's fresh symbol replays the scalar `NoiseSource`. A box lifted with
/// `AffineSet::from_box` therefore gets exactly the boxed
/// `zonotope_propagate`'s bounds. Sets in one batch share only the packed
/// weights, so sets with different symbol universes batch together. Tests
/// pass `isa` to run both kernel back ends.
std::vector<ZonotopeBounds> zonotope_propagate_batch(const kern::PackedNetwork& net,
                                                     const std::vector<const AffineSet*>& inputs,
                                                     kern::Isa isa = kern::active_isa());

/// Sound argmin candidates from zonotope bounds: k is excluded when some
/// output j is provably smaller on the whole zonotope, i.e. the affine
/// difference y_j − y_k (shared symbols cancel) has range strictly below 0.
std::vector<std::size_t> possible_argmin(const ZonotopeBounds& bounds);

/// `(a − b).range().hi()`, bit for bit, from one merge walk over the two
/// sorted term lists (two past 256 terms), without building a − b or
/// allocating. NaN bounds throw, as `range()`'s checked `Interval` does.
double difference_hi(const Affine& a, const Affine& b);

}  // namespace nncs
