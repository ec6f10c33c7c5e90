#pragma once

#include <vector>

#include "interval/box.hpp"
#include "nn/symbolic_prop.hpp"

namespace nncs {

/// Sound over-approximation of the indices the `argmin` post-processing can
/// select, given an enclosure of the network output (the Post# abstract
/// transformer of §6.3 step (2)(iii) for the canonical argmin Post).
///
/// Interval rule: k is possible iff lo(y_k) <= min_j hi(y_j).
std::vector<std::size_t> possible_argmin(const Box& outputs);

/// Refined rule using symbolic bounds: k is excluded as soon as some j is
/// provably strictly smaller on the whole box (sup (y_j - y_k) < 0); the
/// symbolic difference cancels shared input dependencies, so this excludes
/// more candidates than the plain interval rule. Pairs are decided by
/// `output_difference_negative` (a NaN side it computes throws).
std::vector<std::size_t> possible_argmin(const SymbolicBounds& bounds);

/// Concrete argmin with first-index tie-break (the deterministic Post).
std::size_t concrete_argmin(const Vec& outputs);

}  // namespace nncs
