#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "interval/interval.hpp"

namespace nncs {

class FieldTape;

/// A node's operation: an input (state or command variable), a ± b, −a,
/// a · b (the truncated Cauchy product), k · a, a + k, a − k, or sin a /
/// cos a (a kSin node is always followed by its kCos partner).
enum class TapeOp : std::uint8_t {
  kInput, kAdd, kSub, kNeg, kMul, kScale, kAddConst, kSubConst, kSin, kCos
};

/// The recording scalar. A plant field called once over `TapeVar`s appends
/// one tape node per series operation it performs. It supports exactly the
/// operations the Taylor sweep implements, and has no comparison and no
/// conversion to `double`, so a field whose operations depend on values
/// does not compile.
class TapeVar {
 public:
  /// An unrecorded variable: an operand or an output left like this makes
  /// recording throw `std::invalid_argument`.
  TapeVar() = default;

  friend TapeVar operator+(TapeVar a, TapeVar b) { return apply(kAdd, a, b); }
  friend TapeVar operator-(TapeVar a, TapeVar b) { return apply(kSub, a, b); }
  friend TapeVar operator*(TapeVar a, TapeVar b) { return apply(kMul, a, b); }
  friend TapeVar operator-(TapeVar a) { return apply(kNeg, a, a); }
  friend TapeVar operator*(const Interval& k, TapeVar a) { return apply(kScale, a, a, k); }
  friend TapeVar operator*(TapeVar a, const Interval& k) { return k * a; }
  friend TapeVar operator+(TapeVar a, const Interval& k) { return apply(kAddConst, a, a, k); }
  friend TapeVar operator+(const Interval& k, TapeVar a) { return a + k; }
  friend TapeVar operator-(TapeVar a, const Interval& k) { return apply(kSubConst, a, a, k); }
  /// Records −a + k, the series rule's operation order.
  friend TapeVar operator-(const Interval& k, TapeVar a) { return -a + k; }
  /// sin, cos and sincos each record one node pair: the coupled recurrence
  /// computes both.
  friend std::pair<TapeVar, TapeVar> sincos(TapeVar u) {
    const TapeVar s = apply(kSin, u, u);
    return {s, apply(kCos, u, u)};
  }
  friend TapeVar sin(TapeVar u) { return sincos(u).first; }
  friend TapeVar cos(TapeVar u) { return sincos(u).second; }
  /// Recorded as u · u.
  friend TapeVar sqr(TapeVar u) { return u * u; }

 private:
  friend class FieldTape;
  using enum TapeOp;
  TapeVar(FieldTape* tape, std::uint32_t node) : tape_(tape), node_(node) {}
  /// Appends op(a, b; k) to the operands' tape.
  static TapeVar apply(TapeOp op, TapeVar a, TapeVar b, const Interval& k = {});

  FieldTape* tape_ = nullptr;
  std::uint32_t node_ = 0;
};

/// A plant field s' = f(s, u) recorded once as a straight-line tape of
/// series operations. Nodes 0..state_dim−1 are the states, the next
/// command_dim the commands, and every later node applies its operation to
/// earlier ones. A sweep keeps coefficient j of node n in
/// `coeffs[n · stride + j]`; its pass k computes coefficient k of every node
/// by Moore's interval Taylor-mode rules: ± skips an exactly-[0, 0] side, a
/// product sums its Cauchy terms in index order skipping [0, 0] factors, and
/// sin/cos take the interval `sincos` at k = 0, then the coupled recurrence
/// (s' = u' cos u, c' = −u' sin u) divided by k in interval arithmetic.
/// Coefficient k of every operation depends only on coefficients 0..k of
/// its operands and comes from the same operations at any order, so K
/// passes give the bits of a series evaluation at order K. The tape is
/// immutable once recorded: threads sweep it concurrently, each in its own
/// buffer.
class FieldTape {
 public:
  using Op = TapeOp;
  struct Node {
    Op op = Op::kInput;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    Interval k;
  };

  /// Records `f` by calling f(s, u, out) once over `TapeVar` spans. Throws
  /// `std::invalid_argument` when an output is left unwritten or an operand
  /// was never recorded.
  template <class F>
  static FieldTape record(std::size_t state_dim, std::size_t command_dim, const F& f) {
    FieldTape tape(state_dim, command_dim);
    std::vector<TapeVar> vars;
    for (std::size_t i = 0; i < state_dim + command_dim; ++i) {
      vars.push_back(TapeVar{&tape, static_cast<std::uint32_t>(i)});
    }
    std::vector<TapeVar> out(state_dim);
    const std::span<const TapeVar> all{vars};
    f(all.first(state_dim), all.subspan(state_dim), std::span<TapeVar>{out});
    tape.set_outputs(out);
    return tape;
  }

  [[nodiscard]] std::size_t state_dim() const { return state_dim_; }
  [[nodiscard]] std::size_t command_dim() const { return command_dim_; }
  [[nodiscard]] std::span<const Node> nodes() const { return nodes_; }
  /// The node holding f_i, for each state dimension i.
  [[nodiscard]] std::span<const std::uint32_t> outputs() const { return outputs_; }

  /// Pass k of a sweep: sets coefficient k of every non-input node, given
  /// coefficients 0..k of the inputs and 0..k−1 of every node, and writes
  /// nothing else. Returns the terms it computed: the Cauchy and sin/cos
  /// product terms it summed, plus one per linear node (±, −a, k · a,
  /// a ± k), whose coefficient k is one term.
  /// Throws `std::invalid_argument` unless k < stride and `coeffs` holds
  /// exactly nodes().size() · stride intervals.
  std::size_t pass(std::span<Interval> coeffs, std::size_t stride, std::size_t k) const;

 private:
  friend class TapeVar;
  FieldTape(std::size_t state_dim, std::size_t command_dim);
  void set_outputs(std::span<const TapeVar> out);

  std::size_t state_dim_;
  std::size_t command_dim_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> outputs_;
};

/// Horner evaluation of c[0] + c[1]·t + ... over an interval t, skipping
/// the sum with an exactly-[0, 0] side; no coefficients give [0, 0].
Interval horner(std::span<const Interval> c, const Interval& t);

}  // namespace nncs
