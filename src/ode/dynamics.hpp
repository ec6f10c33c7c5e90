#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "interval/box.hpp"
#include "interval/scalar_ops.hpp"
#include "ode/field_tape.hpp"

namespace nncs {

/// Exact linear decomposition of a vector field,
///   f(s, u) = A·s + B·u + g(s),
/// with `a` the state_dim × state_dim matrix A and `b` the
/// state_dim × command_dim matrix B, both row-major. The residual g must
/// not depend on u (the command must enter the field exactly as B·u).
///
/// By default g is implicit (f minus the linear part) and the affine-form
/// integrator step recovers it by interval evaluation of f − A·s − B·u.
/// That subtraction is sound but suffers interval dependency blow-up when
/// the nonlinearity nearly cancels the linear term (e.g. sin θ − θ, where
/// the generic evaluation is ~2·|θ|-wide instead of O(|θ|³)). Declaring
/// `residual` replaces it with a caller-supplied tight interval extension
/// of g — a soundness claim: residual(s, out) must enclose
/// { f(x, u) − A·x − B·u | x ∈ s } for every u.
struct LinearPart {
  std::vector<double> a;
  std::vector<double> b;
  std::function<void(std::span<const Interval>, std::span<Interval>)> residual;
};

/// Right-hand side of an autonomous controlled ODE  s' = f(s, u)  where `u`
/// is the actuation command, constant over each evaluation (the closed-loop
/// model of §4.2: between two control steps the command is held by the
/// zero-order hold).
///
/// The same vector field serves three uses:
///   * `double`   — concrete simulation and falsification,
///   * `Interval` — Picard a-priori enclosures,
///   * `tape()`   — the field recorded once as series operations, whose
///     sweep gives the solution Taylor coefficients of the validated step.
///
/// Time-dependent systems can be modelled by adding t as an extra state
/// variable with derivative 1.
class Dynamics {
 public:
  virtual ~Dynamics() = default;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  [[nodiscard]] virtual std::size_t command_dim() const = 0;

  virtual void eval(std::span<const double> s, std::span<const double> u,
                    std::span<double> out) const = 0;
  virtual void eval(std::span<const Interval> s, std::span<const Interval> u,
                    std::span<Interval> out) const = 0;
  [[nodiscard]] virtual const FieldTape& tape() const = 0;

  /// The linear part of the field, when one is declared (see `LinearPart`).
  /// Null by default: the affine-form integrator step then falls back to a
  /// boxed step. Returning a non-null decomposition is a soundness claim —
  /// f(s,u) − A·s − B·u must be the exact residual.
  [[nodiscard]] virtual const LinearPart* linear_part() const { return nullptr; }
};

/// Adapts a functor templated on the scalar type to the `Dynamics`
/// interface. `F` must be callable as
///   f(std::span<const S> s, std::span<const S> u, std::span<S> out)
/// for S in {double, Interval, TapeVar}; the constructor records the tape
/// (`FieldTape::record`, which throws on a field it cannot record).
template <class F>
class DynamicsModel final : public Dynamics {
 public:
  DynamicsModel(std::size_t state_dim, std::size_t command_dim, F f)
      : state_dim_(state_dim),
        command_dim_(command_dim),
        f_(std::move(f)),
        tape_(FieldTape::record(state_dim, command_dim, f_)) {}

  DynamicsModel(std::size_t state_dim, std::size_t command_dim, F f, LinearPart linear)
      : DynamicsModel(state_dim, command_dim, std::move(f)) {
    linear_ = std::make_unique<LinearPart>(std::move(linear));
    if (linear_->a.size() != state_dim_ * state_dim_ ||
        linear_->b.size() != state_dim_ * command_dim_) {
      throw std::invalid_argument("DynamicsModel: linear part shape mismatch");
    }
  }

  [[nodiscard]] std::size_t state_dim() const override { return state_dim_; }
  [[nodiscard]] std::size_t command_dim() const override { return command_dim_; }

  void eval(std::span<const double> s, std::span<const double> u,
            std::span<double> out) const override {
    f_(s, u, out);
  }
  void eval(std::span<const Interval> s, std::span<const Interval> u,
            std::span<Interval> out) const override {
    f_(s, u, out);
  }
  [[nodiscard]] const FieldTape& tape() const override { return tape_; }

  [[nodiscard]] const LinearPart* linear_part() const override { return linear_.get(); }

 private:
  std::size_t state_dim_;
  std::size_t command_dim_;
  F f_;
  FieldTape tape_;
  std::unique_ptr<LinearPart> linear_;
};

template <class F>
std::unique_ptr<Dynamics> make_dynamics(std::size_t state_dim, std::size_t command_dim, F f) {
  return std::make_unique<DynamicsModel<F>>(state_dim, command_dim, std::move(f));
}

template <class F>
std::unique_ptr<Dynamics> make_dynamics(std::size_t state_dim, std::size_t command_dim, F f,
                                        LinearPart linear) {
  return std::make_unique<DynamicsModel<F>>(state_dim, command_dim, std::move(f),
                                            std::move(linear));
}

/// Evaluate f over an interval box (helper shared by the integrators).
Box eval_on_box(const Dynamics& f, const Box& s, const Vec& u);

}  // namespace nncs
