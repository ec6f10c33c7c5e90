#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "interval/interval.hpp"

namespace nncs {

/// Dense real vector (concrete plant states, network activations, commands).
using Vec = std::vector<double>;

/// Axis-aligned box: the cartesian product of `dim()` intervals.
///
/// Boxes are the set representation used throughout the reachability
/// procedure: plant-state enclosures (the `[s]` of a symbolic state,
/// Def 7), network input/output enclosures, and flowpipe segments.
class Box {
 public:
  Box() = default;

  /// Box of `dim` copies of `iv` (default: degenerate zeros).
  explicit Box(std::size_t dim, const Interval& iv = Interval{});

  /// Box from explicit per-dimension intervals.
  explicit Box(std::vector<Interval> dims);
  Box(std::initializer_list<Interval> dims);

  /// Degenerate box enclosing a single point.
  static Box from_point(const Vec& point);

  /// Smallest box enclosing two corner points (per-dimension min/max).
  static Box from_corners(const Vec& a, const Vec& b);

  [[nodiscard]] std::size_t dim() const { return dims_.size(); }
  [[nodiscard]] bool empty() const { return dims_.empty(); }

  Interval& operator[](std::size_t i) { return dims_[i]; }
  const Interval& operator[](std::size_t i) const { return dims_[i]; }

  [[nodiscard]] const std::vector<Interval>& intervals() const { return dims_; }

  /// Per-dimension midpoints (a representative point inside the box).
  [[nodiscard]] Vec midpoint() const;

  /// Per-dimension widths (upper bounds).
  [[nodiscard]] Vec widths() const;

  /// Largest per-dimension width.
  [[nodiscard]] double max_width() const;

  /// Index of the widest dimension (0 when empty).
  [[nodiscard]] std::size_t widest_dim() const;

  /// Product of the widths (can overflow to +inf for huge boxes; used only
  /// as a diagnostic, never in the soundness argument).
  [[nodiscard]] double volume() const;

  [[nodiscard]] bool contains(const Vec& point) const;
  [[nodiscard]] bool contains(const Box& other) const;
  [[nodiscard]] bool contains_in_interior(const Box& other) const;
  [[nodiscard]] bool intersects(const Box& other) const;

  /// Widen every dimension outward: `delta_abs` plus `delta_rel * mag()`.
  [[nodiscard]] Box inflated(double delta_abs, double delta_rel = 0.0) const;

  /// Split along dimension `d` at its midpoint into (lower, upper) halves.
  [[nodiscard]] std::pair<Box, Box> bisect(std::size_t d) const;

  /// True when bisecting dimension `d` makes progress: the midpoint lies
  /// strictly between the endpoints. False for degenerate or ulp-wide
  /// dimensions, where one `bisect` child would equal the parent box and a
  /// refinement loop around it would never terminate.
  [[nodiscard]] bool bisectable(std::size_t d) const;

  /// Split along each listed dimension at its midpoint, yielding
  /// 2^dims.size() sub-boxes whose union covers this box.
  [[nodiscard]] std::vector<Box> split(const std::vector<std::size_t>& dims_to_split) const;

  /// Euclidean distance between the midpoints of two equal-dimension boxes
  /// (the paper's Def 9 distance between symbolic states):
  /// `euclidean_distance(midpoint(), other.midpoint())`.
  [[nodiscard]] double center_distance(const Box& other) const;

  bool operator==(const Box& other) const = default;

  [[nodiscard]] std::string str() const;

 private:
  std::vector<Interval> dims_;
};

/// sqrt(Σ(a_i − b_i)²), summed in index order. The one formula behind
/// `Box::center_distance`; `resize` applies it to cached midpoints, so both
/// compare the same doubles. Throws `std::invalid_argument` on a size
/// mismatch.
[[nodiscard]] double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Smallest box containing both arguments (Def 10 join on boxes).
Box hull(const Box& a, const Box& b);

/// Component-wise intersection; nullopt when any dimension is disjoint.
std::optional<Box> intersect(const Box& a, const Box& b);

std::ostream& operator<<(std::ostream& os, const Box& box);

}  // namespace nncs
