#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "interval/interval.hpp"

namespace nncs {

/// Allocator of fresh noise-symbol identifiers for affine forms. One source
/// per analysis; symbols from different sources must not be mixed.
class NoiseSource {
 public:
  NoiseSource() = default;

  std::uint32_t fresh() { return next_++; }
  [[nodiscard]] std::uint32_t count() const { return next_; }

 private:
  std::uint32_t next_ = 0;
};

/// Affine-arithmetic scalar (Stolfi & de Figueiredo [15], cited by the
/// paper in §6.2 as the alternative to interval arithmetic for abstract
/// transformers):
///
///   x̂ = c + Σ_i a_i·ε_i + e·ε_fresh,   ε ∈ [-1, 1]
///
/// `c` is the center, the ε_i are shared noise symbols tracking linear
/// correlations between quantities, and `e >= 0` accumulates nonlinear and
/// rounding error as an always-fresh symbol. Sums of affine forms cancel
/// shared symbols exactly — the property that makes the zonotope network
/// transformer tighter than intervals.
///
/// Rounding model: coefficient arithmetic runs in double precision and
/// every operation folds a conservative slack (machine epsilon times the
/// magnitude of the operands, scaled by the term count) into `e` — the same
/// engineering-slack model as the symbolic transformer (DESIGN.md,
/// substitution 3).
class Affine {
 public:
  /// The constant 0.
  Affine() = default;

  /// A constant (no uncertainty). Implicit, so doubles mix naturally.
  Affine(double value) : center_(value) {}  // NOLINT(google-explicit-constructor)

  /// A fresh input variable ranging over [lo, hi].
  static Affine variable(double lo, double hi, NoiseSource& source);

  /// Reassemble a form from raw parts (the batched zonotope transformer
  /// builds its output forms through this). Trusted and unchecked so the
  /// reconstruction cannot perturb a single bit.
  /// Precondition: `terms` sorted by strictly increasing id with nonzero
  /// values, `err >= 0`.
  static Affine from_parts(double center, std::vector<std::pair<std::uint32_t, double>> terms,
                           double err);

  [[nodiscard]] double center() const { return center_; }
  /// Total deviation radius: Σ|a_i| + e (an upper bound).
  [[nodiscard]] double radius() const;
  /// Sound interval enclosure [center - radius, center + radius].
  [[nodiscard]] Interval range() const;
  /// The accumulated anonymous error term.
  [[nodiscard]] double error() const { return err_; }
  /// Linear terms, sorted by symbol id.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, double>>& terms() const {
    return terms_;
  }

  /// Evaluate the affine form at a concrete noise valuation (symbols absent
  /// from `noise` count as 0; the error term contributes ±err). Returns the
  /// interval {value ± err}. Used by tests to check containment.
  [[nodiscard]] Interval evaluate(const std::vector<double>& noise) const;

  Affine operator-() const;
  Affine& operator+=(const Affine& rhs);
  Affine& operator-=(const Affine& rhs);

  friend Affine operator+(const Affine& a, const Affine& b);
  friend Affine operator-(const Affine& a, const Affine& b);
  /// Product with quadratic terms bounded into the error symbol
  /// (err += radius(a)·radius(b)).
  friend Affine operator*(const Affine& a, const Affine& b);
  /// Exact scaling (no new error beyond rounding slack).
  friend Affine operator*(double k, const Affine& a);
  friend Affine operator*(const Affine& a, double k) { return k * a; }
  friend Affine operator+(const Affine& a, double k) { return a + Affine(k); }
  friend Affine operator+(double k, const Affine& a) { return a + Affine(k); }
  friend Affine operator-(const Affine& a, double k) { return a - Affine(k); }
  friend Affine operator-(double k, const Affine& a) { return Affine(k) - a; }

  /// Sound ReLU relaxation in the zonotope domain: exact when the range is
  /// sign-stable; otherwise the minimal-slope relaxation
  ///   relu(x) ∈ λ·x̂ + μ/2 ± μ/2,  λ = u/(u−l), μ = −λ·l,
  /// with the ±μ/2 deviation attached as a fresh noise symbol.
  [[nodiscard]] Affine relu(NoiseSource& source) const;

  /// Fold a nonnegative deviation magnitude into the anonymous error term
  /// (sound widening; `AffineSet::linear_image` uses it to absorb interval
  /// matrix radii and remainder terms). Throws on negative or NaN input.
  void add_error(double magnitude);

 private:
  double center_ = 0.0;
  std::vector<std::pair<std::uint32_t, double>> terms_;
  double err_ = 0.0;
};

}  // namespace nncs
