#pragma once

#include <cstddef>
#include <vector>

#include "core/abstract_state.hpp"

namespace nncs {

/// Symbolic state (paper Def 7): an abstract plant-state enclosure paired
/// with one concrete actuation command, identified by its index into the
/// finite command set U. It represents the (infinite) set of closed-loop
/// states
///   { (s, u) | s ∈ abstract, u = U[command] }.
///
/// The enclosure is an `AbstractState`: always a box, optionally refined by
/// a relational (affine-set) part in the zonotope loop domain. All
/// box-shaped consumers go through `box()`.
struct SymbolicState {
  AbstractState abstract;
  std::size_t command = 0;

  [[nodiscard]] const Box& box() const { return abstract.box(); }
};

/// Symbolic set (paper Def 8): a finite collection of symbolic states whose
/// union over-approximates a set of closed-loop states.
using SymbolicSet = std::vector<SymbolicState>;

/// Def 9: euclidean distance between box centers.
///
/// Precondition: both states carry the same command (distance between
/// states with different actuation is undefined in the paper's metric);
/// throws `std::invalid_argument` otherwise.
double distance(const SymbolicState& a, const SymbolicState& b);

/// Def 10: smallest symbolic state containing both inputs.
///
/// Precondition: `a.command == b.command` — a join across commands has no
/// single representative command and `resize` never requests one; throws
/// `std::invalid_argument` otherwise. The result keeps `a.command` and the
/// hull of the two boxes; any relational refinement is demoted to the hull
/// (counted as `core.join_relational_drops`).
SymbolicState join(const SymbolicState& a, const SymbolicState& b);

/// Statistics from one `resize` run.
struct ResizeStats {
  std::size_t joins = 0;
};

/// Algorithm 2: greedily join the two closest same-command symbolic states
/// until the set size is at most `gamma`.
///
/// Each join takes the pair at the smallest `distance`, ties going to the
/// lowest (i, j) in set order; a pair at infinite distance is never joined.
/// The joined state takes the lower slot i, state j leaves, and the
/// survivors keep their order. Since states with different commands can
/// never be joined, the size cannot drop below the number of distinct
/// commands present (Remark 3); when gamma is smaller than that, the
/// function stops at the smallest reachable size.
///
/// Cost per call: O(n²) distance evaluations for n states (each state keeps
/// its nearest later same-command neighbour, and a join rescans only the
/// rows it invalidated) and O(n) scratch. Counted as `join.joins` and
/// `join.distance_evals`.
ResizeStats resize(SymbolicSet& set, std::size_t gamma);

}  // namespace nncs
