#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "interval/affine_set.hpp"
#include "interval/box.hpp"
#include "ode/dynamics.hpp"

namespace nncs {

/// Result of one validated integration step of size h:
///  * `flow` encloses s(t) for all t in [0, h],
///  * `end`  encloses s(h) (always a subset of `flow`).
/// This is the ([s_{[t1,t2]}], [s_{t=t2}]) pair of §6.2.
struct ValidatedStep {
  Box flow;
  Box end;
};

/// Relational variant of a validated step: the end-of-step set is an affine
/// form over the input set's noise symbols (correlations survive), the flow
/// enclosure stays boxed (error-set checks consume boxes). `end_box` is the
/// componentwise intersection of the affine concretization with the boxed
/// step's end — never wider than either.
struct AffineValidatedStep {
  Box flow;
  AffineSet end;
  Box end_box;
};

/// A validated (sound) one-step ODE integrator: given s(0) ∈ s0 and the
/// constant command u, produce boxes enclosing the exact solution.
/// Returns nullopt when no enclosure could be established (a-priori
/// inflation failed); callers must treat that as "cannot prove".
class ValidatedIntegrator {
 public:
  virtual ~ValidatedIntegrator() = default;

  [[nodiscard]] virtual std::optional<ValidatedStep> step(const Dynamics& f, const Box& s0,
                                                          const Vec& u, double h) const = 0;

  /// Affine-form step: like `step` but threading an affine set through the
  /// enclosure. The base implementation concretizes, runs the boxed step
  /// and re-lifts its end box (sound, but forgets correlations);
  /// `TaylorIntegrator` overrides it with a variation-of-constants scheme
  /// on the dynamics' linear part.
  [[nodiscard]] virtual std::optional<AffineValidatedStep> step_affine(const Dynamics& f,
                                                                      const AffineSet& s0,
                                                                      const Vec& u,
                                                                      double h) const;
};

/// Configuration shared by the Picard a-priori enclosure search.
struct PicardConfig {
  /// Initial relative inflation applied to the first candidate enclosure.
  double initial_inflation = 0.01;
  /// Multiplicative growth of the candidate between failed iterations.
  double growth = 1.5;
  /// Maximum fixed-point iterations before giving up.
  int max_iterations = 30;
};

/// Compute an a-priori enclosure B for the solution over [0, h]:
/// a box with  s0 + [0, h] * f(B)  contained in the interior of B, which by
/// the Picard–Lindelöf/Banach argument encloses every solution starting in
/// s0 for all t in [0, h]. Returns the *tightened* image
/// s0 + [0,h]·f(B) (itself a valid enclosure) or nullopt on failure.
std::optional<Box> picard_enclosure(const Dynamics& f, const Box& s0, const Vec& u, double h,
                                    const PicardConfig& config = {});

/// Interval Taylor-series integrator (Moore/Löhner two-step scheme, the
/// validated-simulation engine of §6.2):
///  1. find the a-priori enclosure B over [0, h] (Banach fixed point),
///  2. tighten with the order-K Taylor expansion whose prefix coefficients
///     are seeded at s0 and whose remainder coefficient is evaluated on B,
///     by K−1 and K passes of a sweep of the field's tape (`Dynamics::tape`).
class TaylorIntegrator final : public ValidatedIntegrator {
 public:
  /// Largest Taylor order a step takes.
  static constexpr int kMaxOrder = 15;

  struct Config {
    /// Taylor order K (local truncation error O(h^{K+1}) inside the
    /// remainder coefficient; 1 <= K <= kMaxOrder, else the constructor
    /// throws std::invalid_argument).
    int order = 4;
    PicardConfig picard;
  };

  TaylorIntegrator();
  explicit TaylorIntegrator(Config config);

  [[nodiscard]] std::optional<ValidatedStep> step(const Dynamics& f, const Box& s0, const Vec& u,
                                                  double h) const override;

  /// Affine-form step via variation of constants on the declared linear
  /// part f = A·s + B·u + g:
  ///   s(h) = e^{Ah}·s(0) + (∫e^{Aσ}dσ)·B·u + ∫e^{A(h−τ)}·g(s(τ)) dτ,
  /// with e^{Ah} and its integral enclosed by order-K interval Taylor
  /// polynomials plus a rigorous tail bound, applied to the affine set as a
  /// linear image (the correlation-preserving part), and the nonlinear
  /// residual g enclosed intervally over the boxed flow enclosure. Each end
  /// component falls back to the boxed step's (lifted) end interval when
  /// that is tighter, so the affine step is never worse than boxing.
  /// Dynamics without a linear part use the base-class boxed fallback.
  [[nodiscard]] std::optional<AffineValidatedStep> step_affine(const Dynamics& f,
                                                              const AffineSet& s0, const Vec& u,
                                                              double h) const override;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

/// First-order interval Euler integrator: end = s0 + h·f(B), flow = B.
/// Sound but much looser than the Taylor scheme — kept as the ablation
/// baseline for experiment A5.
class EulerIntegrator final : public ValidatedIntegrator {
 public:
  explicit EulerIntegrator(PicardConfig config = {});

  [[nodiscard]] std::optional<ValidatedStep> step(const Dynamics& f, const Box& s0, const Vec& u,
                                                  double h) const override;

 private:
  PicardConfig config_;
};

/// Flowpipe over one controller period: the output of Algorithm 1
/// (SIMULATE) — M per-step enclosures plus the end-of-period set.
struct Flowpipe {
  /// Per-sub-step boxes: segments[i] encloses s(t) for
  /// t in [i·T/M, (i+1)·T/M].
  std::vector<Box> segments;
  /// Box enclosing s(T). From an affine start this is the componentwise
  /// tightened `AffineValidatedStep::end_box` (⊆ the affine end's range).
  Box end;
  /// Affine set enclosing s(T), threaded from an affine start through every
  /// sub-step without re-boxing; null for a box start. Shared so the loop
  /// can hand it to successor states without copying.
  std::shared_ptr<const AffineSet> affine_end;
  /// False when some validated step failed; the partial flowpipe is then
  /// meaningless for proving safety.
  bool ok = true;

  /// Hull of all segments (the single-box [s_{[j[}] view).
  [[nodiscard]] Box hull_box() const;
};

/// Algorithm 1: propagate s0 under constant command u for duration `period`
/// using M successive validated steps. A box start takes the integrator's
/// boxed `step`; an affine start takes `step_affine`, so the end set never
/// re-boxes between sub-steps — this is where the wrapping effect of the
/// boxed loop dies. Both run the same sub-step schedule and rejection path.
Flowpipe simulate(const Dynamics& f, const ValidatedIntegrator& integrator, const Box& s0,
                  const Vec& u, double period, int steps);
Flowpipe simulate(const Dynamics& f, const ValidatedIntegrator& integrator, const AffineSet& s0,
                  const Vec& u, double period, int steps);

}  // namespace nncs
