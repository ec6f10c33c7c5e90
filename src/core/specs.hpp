#pragma once

#include <cstddef>
#include <memory>

#include "interval/box.hpp"

namespace nncs {

/// A region of the closed-loop state space R^l × U, used for the erroneous
/// set **E** and the target set **T** of §4.1.
///
/// The two box-level tests must be *sound in opposite directions*:
///  * `certainly_contains` may return true only if every state of the
///    symbolic state (box, command) lies in the region — used for the
///    termination test ([s],u) ⊂ T;
///  * `possibly_intersects` may return false only if the symbolic state is
///    provably disjoint from the region — used for the error test
///    R̃ ∩ E ≠ ∅.
class StateRegion {
 public:
  virtual ~StateRegion() = default;
  [[nodiscard]] virtual bool contains_point(const Vec& state, std::size_t command) const = 0;
  [[nodiscard]] virtual bool certainly_contains(const Box& state, std::size_t command) const = 0;
  [[nodiscard]] virtual bool possibly_intersects(const Box& state, std::size_t command) const = 0;
};

/// Region defined by euclidean distance of two state coordinates from the
/// origin: inside iff  sqrt(s[ix]^2 + s[iy]^2)  <  threshold  (kInner) or
/// > threshold (kOuter). Commands are ignored. This models both the ACAS Xu
/// collision cylinder **E** (inner, 500 ft) and its sensor-escape target
/// **T** (outer, 8000 ft); all tests go through outward-rounded interval
/// arithmetic.
class RadialRegion final : public StateRegion {
 public:
  enum class Mode { kInner, kOuter };

  RadialRegion(std::size_t ix, std::size_t iy, double threshold, Mode mode);

  [[nodiscard]] bool contains_point(const Vec& state, std::size_t command) const override;
  [[nodiscard]] bool certainly_contains(const Box& state, std::size_t command) const override;
  [[nodiscard]] bool possibly_intersects(const Box& state, std::size_t command) const override;

 private:
  std::size_t ix_;
  std::size_t iy_;
  double threshold_;
  Mode mode_;
};

/// Region defined by a box over a subset of state dimensions (commands
/// ignored): inside iff every constrained coordinate lies in its interval.
/// Used by the quickstart/pendulum examples for interval error/target sets.
class BoxRegion final : public StateRegion {
 public:
  /// `constraints[i]` pairs a state index with the interval it must lie in.
  explicit BoxRegion(std::vector<std::pair<std::size_t, Interval>> constraints);

  [[nodiscard]] bool contains_point(const Vec& state, std::size_t command) const override;
  [[nodiscard]] bool certainly_contains(const Box& state, std::size_t command) const override;
  [[nodiscard]] bool possibly_intersects(const Box& state, std::size_t command) const override;

 private:
  std::vector<std::pair<std::size_t, Interval>> constraints_;
};

/// The empty region (never contains, never intersects) — for systems with
/// no termination set, making the horizon bound the only stopping rule.
class EmptyRegion final : public StateRegion {
 public:
  [[nodiscard]] bool contains_point(const Vec&, std::size_t) const override { return false; }
  [[nodiscard]] bool certainly_contains(const Box&, std::size_t) const override { return false; }
  [[nodiscard]] bool possibly_intersects(const Box&, std::size_t) const override { return false; }
};

/// Union of two regions, owning both parts. The box tests compose soundly:
/// a box is certainly inside the union if it is certainly inside either part
/// (sufficient, possibly incomplete), and possibly intersects it if it
/// possibly intersects either part.
class UnionRegion final : public StateRegion {
 public:
  UnionRegion(std::unique_ptr<StateRegion> a, std::unique_ptr<StateRegion> b);

  [[nodiscard]] bool contains_point(const Vec& s, std::size_t c) const override {
    return a_->contains_point(s, c) || b_->contains_point(s, c);
  }
  [[nodiscard]] bool certainly_contains(const Box& s, std::size_t c) const override {
    return a_->certainly_contains(s, c) || b_->certainly_contains(s, c);
  }
  [[nodiscard]] bool possibly_intersects(const Box& s, std::size_t c) const override {
    return a_->possibly_intersects(s, c) || b_->possibly_intersects(s, c);
  }

 private:
  std::unique_ptr<StateRegion> a_;
  std::unique_ptr<StateRegion> b_;
};

}  // namespace nncs
