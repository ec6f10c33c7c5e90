// Tests for the validated ODE machinery: Picard a-priori enclosures, the
// interval Taylor-series integrator (bit for bit against the full-order
// recurrence it replaced), the Euler baseline, Algorithm 1
// (simulate) and the RK4 reference — including the soundness property that
// every concretely integrated trajectory stays inside the validated
// enclosures.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acasxu/dynamics.hpp"
#include "ode/concrete_integrator.hpp"
#include "ode/dynamics.hpp"
#include "obs/metrics.hpp"
#include "ode/validated_integrator.hpp"
#include "scenario/scenario.hpp"
#include "series_reference.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

/// s' = -s (1-d decay): closed form s(t) = s0 e^{-t}.
struct DecayField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = -s[0] + 0.0 * u[0];
  }
};

/// Harmonic oscillator: (x, v)' = (v, -x); command unused.
struct OscillatorField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * u[0];
    out[1] = -s[0] + 0.0 * u[0];
  }
};

/// Controlled integrator: (p, v)' = (v, u).
struct DoubleIntegratorField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];
    out[1] = u[0] + 0.0 * s[1];
  }
};

/// Nonlinear: s' = sin(s) + u.
struct SineField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = sin(s[0]) + u[0];
  }
};

TEST(Dynamics, ModelReportsDimensions) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  EXPECT_EQ(f->state_dim(), 2u);
  EXPECT_EQ(f->command_dim(), 1u);
}

TEST(Dynamics, EvalOnBoxMatchesIntervalEvaluation) {
  const auto f = make_dynamics(2, 1, DoubleIntegratorField{});
  const Box img = eval_on_box(*f, Box{Interval{0.0, 1.0}, Interval{2.0, 3.0}}, Vec{5.0});
  EXPECT_TRUE(img[0].contains(Interval{2.0, 3.0}));
  EXPECT_TRUE(img[1].contains(5.0));
}

TEST(Picard, FindsEnclosureForDecay) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const auto b = picard_enclosure(*f, Box{Interval{1.0, 2.0}}, Vec{0.0}, 0.1);
  ASSERT_TRUE(b.has_value());
  // True solutions stay in [e^{-0.1}, 2].
  EXPECT_TRUE((*b)[0].contains(Interval{std::exp(-0.1), 2.0}));
}

TEST(Picard, RejectsNonPositiveStep) {
  const auto f = make_dynamics(1, 1, DecayField{});
  EXPECT_THROW(picard_enclosure(*f, Box{Interval{1.0}}, Vec{0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(picard_enclosure(*f, Box{Interval{1.0}}, Vec{0.0}, -1.0), std::invalid_argument);
}

TEST(TaylorIntegrator, RejectsOrderZero) {
  TaylorIntegrator::Config config;
  config.order = 0;
  EXPECT_THROW(TaylorIntegrator{config}, std::invalid_argument);
}

TEST(TaylorIntegrator, RejectsOrderAboveCap) {
  EXPECT_THROW(TaylorIntegrator(TaylorIntegrator::Config{16, {}}), std::invalid_argument);
  const TaylorIntegrator top(TaylorIntegrator::Config{15, {}});
  const auto f = make_dynamics(1, 1, SineField{});
  EXPECT_TRUE(top.step(*f, Box{Interval{0.4, 0.5}}, Vec{0.1}, 0.2).has_value());
}

TEST(TaylorIntegrator, DecayStepEnclosesClosedForm) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const TaylorIntegrator integrator;
  const auto step = integrator.step(*f, Box{Interval{1.0, 2.0}}, Vec{0.0}, 0.25);
  ASSERT_TRUE(step.has_value());
  const double lo = std::exp(-0.25) * 1.0;
  const double hi = std::exp(-0.25) * 2.0;
  EXPECT_TRUE(step->end[0].contains(lo));
  EXPECT_TRUE(step->end[0].contains(hi));
  // Box enclosures cannot contract widths (the dependency problem); the
  // natural bound is one factor of e^{L·h} on the initial width.
  EXPECT_LT(step->end[0].width(), 1.0 * std::exp(0.25) * 1.05);
  // Flow contains both endpoints in time.
  EXPECT_TRUE(step->flow[0].contains(2.0));
  EXPECT_TRUE(step->flow[0].contains(lo));
  // End is inside flow.
  EXPECT_TRUE(step->flow.contains(step->end));
}

TEST(TaylorIntegrator, OscillatorQuarterTurn) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  const TaylorIntegrator integrator(TaylorIntegrator::Config{6, {}});
  Box current{Interval{1.0, 1.0}, Interval{0.0, 0.0}};
  // Integrate to t = pi/2 in 16 steps: (1,0) -> (0,-1).
  const double h = std::numbers::pi / 2.0 / 16.0;
  for (int i = 0; i < 16; ++i) {
    const auto step = integrator.step(*f, current, Vec{0.0}, h);
    ASSERT_TRUE(step.has_value());
    current = step->end;
  }
  EXPECT_TRUE(current[0].contains(0.0));
  EXPECT_TRUE(current[1].contains(-1.0));
  EXPECT_LT(current[0].width(), 1e-6);
}

TEST(TaylorIntegrator, HigherOrderIsTighter) {
  const auto f = make_dynamics(1, 1, SineField{});
  const Box s0{Interval{0.4, 0.5}};
  const TaylorIntegrator low(TaylorIntegrator::Config{1, {}});
  const TaylorIntegrator high(TaylorIntegrator::Config{5, {}});
  const auto step_low = low.step(*f, s0, Vec{0.1}, 0.2);
  const auto step_high = high.step(*f, s0, Vec{0.1}, 0.2);
  ASSERT_TRUE(step_low.has_value());
  ASSERT_TRUE(step_high.has_value());
  EXPECT_LE(step_high->end[0].width(), step_low->end[0].width());
}

TEST(EulerIntegrator, SoundButLooserThanTaylor) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const EulerIntegrator euler;
  const TaylorIntegrator taylor;
  const Box s0{Interval{1.0, 1.1}};
  const auto se = euler.step(*f, s0, Vec{0.0}, 0.1);
  const auto st = taylor.step(*f, s0, Vec{0.0}, 0.1);
  ASSERT_TRUE(se.has_value());
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(se->end[0].contains(std::exp(-0.1)));
  EXPECT_GE(se->end[0].width(), st->end[0].width());
}

TEST(Simulate, FlowpipeHasOneSegmentPerStep) {
  const auto f = make_dynamics(2, 1, DoubleIntegratorField{});
  const TaylorIntegrator integrator;
  const Flowpipe pipe =
      simulate(*f, integrator, Box{Interval{0.0, 1.0}, Interval{1.0, 1.0}}, Vec{0.5}, 1.0, 4);
  EXPECT_TRUE(pipe.ok);
  EXPECT_EQ(pipe.segments.size(), 4u);
  // p(1) = p0 + v0 + u/2 in [1.25, 2.25]; v(1) = 1.5.
  EXPECT_TRUE(pipe.end[0].contains(Interval{1.25, 2.25}));
  EXPECT_TRUE(pipe.end[1].contains(1.5));
  // hull covers start and end
  const Box h = pipe.hull_box();
  EXPECT_TRUE(h[0].contains(0.0));
  EXPECT_TRUE(h[0].contains(2.25));
}

TEST(Simulate, InvalidArgumentsThrow) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const TaylorIntegrator integrator;
  EXPECT_THROW(simulate(*f, integrator, Box{Interval{1.0}}, Vec{0.0}, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(simulate(*f, integrator, Box{Interval{1.0}}, Vec{0.0}, -1.0, 4),
               std::invalid_argument);
  const AffineSet a0 = AffineSet::from_box(Box{Interval{1.0}});
  EXPECT_THROW(simulate(*f, integrator, a0, Vec{0.0}, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(simulate(*f, integrator, a0, Vec{0.0}, -1.0, 4), std::invalid_argument);
}

/// Taylor steps that stop enclosing after `accepted` calls. The base
/// class's `step_affine` goes through `step`, so both simulate overloads
/// see the same rejection.
class RejectingIntegrator final : public ValidatedIntegrator {
 public:
  explicit RejectingIntegrator(int accepted) : accepted_(accepted) {}

  [[nodiscard]] std::optional<ValidatedStep> step(const Dynamics& f, const Box& s0, const Vec& u,
                                                  double h) const override {
    if (calls_++ >= accepted_) {
      return std::nullopt;
    }
    return inner_.step(f, s0, u, h);
  }

 private:
  TaylorIntegrator inner_;
  int accepted_;
  mutable int calls_ = 0;
};

TEST(Simulate, RejectedStepAbortsEitherStart) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const Box s0{Interval{1.0, 1.1}};
  const auto counts = [] {
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    return std::pair{snap.counter("ode.substeps"), snap.counter("ode.step_rejections")};
  };
  obs::set_enabled(true);
  const auto before = counts();
  const Flowpipe boxed = simulate(*f, RejectingIntegrator{1}, s0, Vec{0.0}, 1.0, 4);
  const auto between = counts();
  const Flowpipe affine =
      simulate(*f, RejectingIntegrator{1}, AffineSet::from_box(s0), Vec{0.0}, 1.0, 4);
  const auto after = counts();
  obs::set_enabled(false);

  // One accepted sub-step, then the rejected one aborts the pipe.
  for (const Flowpipe* pipe : {&boxed, &affine}) {
    EXPECT_FALSE(pipe->ok);
    EXPECT_EQ(pipe->segments.size(), 1u);
  }
  EXPECT_EQ(between.first - before.first, std::uint64_t{2});
  EXPECT_EQ(between.second - before.second, std::uint64_t{1});
  EXPECT_EQ(after.first - between.first, std::uint64_t{2});
  EXPECT_EQ(after.second - between.second, std::uint64_t{1});
}

TEST(Rk4, MatchesClosedFormDecay) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const Vec s1 = rk4_integrate(*f, Vec{1.0}, Vec{0.0}, 1.0, 100);
  EXPECT_NEAR(s1[0], std::exp(-1.0), 1e-8);
}

TEST(Rk4, TrajectoryHasExpectedShape) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  const auto traj = rk4_trajectory(*f, Vec{1.0, 0.0}, Vec{0.0}, 2.0 * std::numbers::pi, 200);
  EXPECT_EQ(traj.size(), 201u);
  EXPECT_NEAR(traj.back()[0], 1.0, 1e-6);  // full period returns to start
  EXPECT_NEAR(traj.back()[1], 0.0, 1e-6);
  EXPECT_THROW(rk4_trajectory(*f, Vec{1.0, 0.0}, Vec{0.0}, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Soundness property: RK4 trajectories from sampled initial conditions stay
// inside the validated flowpipe, for several systems and step counts.
// ---------------------------------------------------------------------------

struct SoundnessCase {
  const char* name;
  std::size_t dim;
  double period;
  int steps;
  double u;
  double lo0, hi0, lo1, hi1;  // initial ranges (dim 2 uses both)
  int field;                  // 0=decay 1=osc 2=dblint 3=sine
};

// Printed as the case name so the listed test name holds no pointer bytes
// (see PrintTo(OpCase) in test_interval.cpp).
void PrintTo(const SoundnessCase& c, std::ostream* os) { *os << c.name; }

class FlowpipeSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(FlowpipeSoundness, ConcreteTrajectoriesStayInside) {
  const auto& c = GetParam();
  std::unique_ptr<Dynamics> f;
  switch (c.field) {
    case 0:
      f = make_dynamics(1, 1, DecayField{});
      break;
    case 1:
      f = make_dynamics(2, 1, OscillatorField{});
      break;
    case 2:
      f = make_dynamics(2, 1, DoubleIntegratorField{});
      break;
    default:
      f = make_dynamics(1, 1, SineField{});
      break;
  }
  Box s0 = c.dim == 1 ? Box{Interval{c.lo0, c.hi0}}
                      : Box{Interval{c.lo0, c.hi0}, Interval{c.lo1, c.hi1}};
  const TaylorIntegrator integrator;
  const Flowpipe pipe = simulate(*f, integrator, s0, Vec{c.u}, c.period, c.steps);
  ASSERT_TRUE(pipe.ok) << c.name;

  Rng rng(2024);
  const int kSubstepsPerSegment = 8;
  for (int trial = 0; trial < 40; ++trial) {
    Vec s(c.dim);
    for (std::size_t d = 0; d < c.dim; ++d) {
      s[d] = rng.uniform(s0[d].lo(), s0[d].hi());
    }
    // Walk the trajectory segment by segment; every substep state must lie
    // in the corresponding flowpipe segment.
    const double h_seg = c.period / c.steps;
    for (int seg = 0; seg < c.steps; ++seg) {
      for (int sub = 0; sub < kSubstepsPerSegment; ++sub) {
        ASSERT_TRUE(pipe.segments[seg].contains(s))
            << c.name << " seg " << seg << " sub " << sub;
        s = rk4_step(*f, s, Vec{c.u}, h_seg / kSubstepsPerSegment);
      }
    }
    ASSERT_TRUE(pipe.end.contains(s)) << c.name << " at end";
  }
}

// ---------------------------------------------------------------------------
// Affine-form steps (the zonotope loop domain's integrator): soundness
// against the concrete simulator, the never-worse-than-boxing floor, the
// correlation survival on rotations, and the declared-residual tightening.
// ---------------------------------------------------------------------------

/// Damped pendulum-like field with a declared linear part,
///   f(s, u) = A·s + B·u + (0, -(sin s0 - s0)),
/// used both with the implicit residual (interval evaluation of f - A·s -
/// B·u) and with the tight monotone-endpoint extension.
struct SoftPendulumField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];
    out[1] = -sin(s[0]) - Interval{0.2} * s[1] + u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = s[1];
    out[1] = -std::sin(s[0]) - 0.2 * s[1] + u[0];
  }
};

LinearPart soft_pendulum_linear(bool tight_residual) {
  LinearPart lp{{0.0, 1.0, -1.0, -0.2}, {0.0, 1.0}};
  if (tight_residual) {
    // sin x - x is non-increasing, so its exact range over [lo, hi] is the
    // hull of the outward-rounded endpoint evaluations.
    lp.residual = [](std::span<const Interval> s, std::span<Interval> out) {
      const Interval lo{s[0].lo()};
      const Interval hi{s[0].hi()};
      out[0] = Interval{};
      out[1] = -hull(sin(lo) - lo, sin(hi) - hi);
    };
  }
  return lp;
}

/// Pure rotation with an exact (zero) declared residual.
std::unique_ptr<Dynamics> rotation_dynamics() {
  LinearPart lp{{0.0, 1.0, -1.0, 0.0}, {0.0, 0.0}};
  lp.residual = [](std::span<const Interval>, std::span<Interval> out) {
    out[0] = Interval{};
    out[1] = Interval{};
  };
  return make_dynamics(2, 1, OscillatorField{}, lp);
}

TEST(AffineStep, EndBoxNeverWiderThanBoxedStep) {
  const auto f = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const TaylorIntegrator integrator;
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const double c0 = rng.uniform(-0.6, 0.6);
    const double c1 = rng.uniform(-0.8, 0.8);
    const double w = rng.uniform(0.01, 0.3);
    const Box s0{Interval{c0 - w, c0 + w}, Interval{c1 - w, c1 + w}};
    const Vec u{rng.uniform(-1.0, 1.0)};
    // Mirror the integrator's own boxed companion step exactly (it runs on
    // the lifted set's concretization, which carries a few ulps of lift
    // slack over s0) so the floor guarantee is a deterministic containment.
    const AffineSet lifted = AffineSet::from_box(s0);
    const auto boxed = integrator.step(*f, lifted.concretize(), u, 0.05);
    const auto affine = integrator.step_affine(*f, lifted, u, 0.05);
    ASSERT_TRUE(boxed.has_value());
    ASSERT_TRUE(affine.has_value());
    EXPECT_TRUE(boxed->end.contains(affine->end_box)) << "trial " << trial;
    EXPECT_TRUE(affine->end.concretize().contains(affine->end_box));
  }
}

TEST(AffineStep, SoundAgainstConcreteTrajectories) {
  const auto f = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const TaylorIntegrator integrator;
  const Box s0{Interval{0.2, 0.4}, Interval{-0.3, -0.1}};
  const Vec u{0.5};
  const double h = 0.08;
  const auto affine = integrator.step_affine(*f, AffineSet::from_box(s0), u, h);
  ASSERT_TRUE(affine.has_value());
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    Vec s{rng.uniform(s0[0].lo(), s0[0].hi()), rng.uniform(s0[1].lo(), s0[1].hi())};
    EXPECT_TRUE(affine->flow.contains(s));
    // Flow must cover the whole step, end_box the endpoint.
    for (int sub = 0; sub < 8; ++sub) {
      s = rk4_step(*f, s, u, h / 8.0);
      EXPECT_TRUE(affine->flow.contains(s)) << "mid-step escape, trial " << trial;
    }
    EXPECT_TRUE(affine->end_box.contains(s)) << "end escape, trial " << trial;
  }
}

TEST(AffineStep, DeclaredResidualIsTighterThanImplicit) {
  const Box s0{Interval{-0.5, 0.5}, Interval{-0.2, 0.2}};
  const Vec u{0.0};
  const TaylorIntegrator integrator;
  const auto f_implicit =
      make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(false));
  const auto f_tight = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const auto implicit = integrator.step_affine(*f_implicit, AffineSet::from_box(s0), u, 0.1);
  const auto tight = integrator.step_affine(*f_tight, AffineSet::from_box(s0), u, 0.1);
  ASSERT_TRUE(implicit.has_value());
  ASSERT_TRUE(tight.has_value());
  // The implicit interval recovery of sin x - x over a zero-centred box is
  // ~2|x|-wide from dependency loss; the monotone endpoint extension is
  // O(|x|^3). Velocity (the dimension the residual feeds) must come out
  // strictly tighter, and never looser anywhere.
  EXPECT_LT(tight->end_box[1].width(), implicit->end_box[1].width());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(tight->end_box[i].width(), implicit->end_box[i].width() + 1e-12);
  }
}

TEST(SimulateAffine, RotationStaysTightWhereBoxingWraps) {
  const auto f = rotation_dynamics();
  const TaylorIntegrator integrator;
  const Box s0{Interval{0.9, 1.1}, Interval{-0.1, 0.1}};
  const Vec u{0.0};
  const int steps = 10;
  const double period = 1.2;
  const Flowpipe boxed = simulate(*f, integrator, s0, u, period, steps);
  const Flowpipe affine = simulate(*f, integrator, AffineSet::from_box(s0), u, period, steps);
  ASSERT_TRUE(boxed.ok);
  ASSERT_TRUE(affine.ok);
  EXPECT_EQ(boxed.affine_end, nullptr);
  ASSERT_NE(affine.affine_end, nullptr);
  // Rotation is an isometry: the affine end set keeps widths ~0.2 while the
  // boxed pipeline compounds a wrapping factor every sub-step.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(affine.end[i].width(), boxed.end[i].width());
    EXPECT_LT(affine.end[i].width(), 0.3);
  }
  EXPECT_GT(boxed.end[0].width(), affine.end[0].width() * 1.5);
  // And it is still sound: concrete endpoints stay inside.
  Rng rng(47);
  for (int trial = 0; trial < 30; ++trial) {
    Vec s{rng.uniform(s0[0].lo(), s0[0].hi()), rng.uniform(s0[1].lo(), s0[1].hi())};
    s = rk4_integrate(*f, s, u, period, 256);
    EXPECT_TRUE(affine.end.contains(s)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, FlowpipeSoundness,
    ::testing::Values(
        SoundnessCase{"decay", 1, 1.0, 10, 0.0, 0.5, 1.5, 0, 0, 0},
        SoundnessCase{"decay_forced", 1, 2.0, 20, 0.7, -1.0, 1.0, 0, 0, 0},
        SoundnessCase{"oscillator", 2, 1.0, 10, 0.0, 0.9, 1.1, -0.1, 0.1, 1},
        SoundnessCase{"double_integrator", 2, 1.0, 5, -2.0, 0.0, 1.0, 1.0, 2.0, 2},
        SoundnessCase{"sine", 1, 1.0, 10, 0.3, 0.0, 0.5, 0, 0, 3},
        SoundnessCase{"sine_negative", 1, 0.5, 5, -0.5, -1.0, -0.5, 0, 0, 3}),
    [](const auto& param_info) { return param_info.param.name; });

// ---------------------------------------------------------------------------
// The tape sweep must not change a bit: the integrator's step against the
// series arithmetic evaluated at full order on every pass, on every
// registered scenario's plant plus dual ACAS Xu and a field using every
// recorded operation; the recording against the functors evaluated over
// series; and the fused fields against unfused copies.
// ---------------------------------------------------------------------------

using reference::TaylorSeries;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Interval& a, const Interval& b) {
  return same_bits(a.lo(), b.lo()) && same_bits(a.hi(), b.hi());
}

bool same_bits(const Box& a, const Box& b) {
  if (a.dim() != b.dim()) {
    return false;
  }
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

bool same_bits(const TaylorSeries& a, const TaylorSeries& b) {
  if (a.order() != b.order()) {
    return false;
  }
  for (std::size_t k = 0; k <= a.order(); ++k) {
    if (!same_bits(a[k], b[k])) {
      return false;
    }
  }
  return true;
}

/// Reference recurrence: every pass evaluates the field over full order-K
/// series and the series keeps all K+1 coefficients.
std::vector<TaylorSeries> full_order_coefficients(const Dynamics& f, const Box& seed,
                                                  const Vec& u, std::size_t order) {
  std::vector<TaylorSeries> s(f.state_dim(), TaylorSeries(order));
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i][0] = seed[i];
  }
  std::vector<TaylorSeries> u_series;
  for (const double uc : u) {
    u_series.emplace_back(order, Interval{uc});
  }
  for (std::size_t k = 0; k < order; ++k) {
    const std::vector<TaylorSeries> fs = reference::eval_tape(f.tape(), s, u_series);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i][k + 1] = fs[i][k] / Interval{static_cast<double>(k + 1)};
    }
  }
  return s;
}

/// Reference step: the full-order prefix seeded at s0, evaluated through
/// coefficient K-1, plus the order-K coefficient seeded at the a-priori box.
/// The evaluation applies the series' exact-zero rules (Horner skips [0, 0]
/// sides, and an exactly-zero remainder adds nothing), so only the
/// coefficients are under comparison.
std::optional<ValidatedStep> full_order_step(const Dynamics& f, const Box& s0, const Vec& u,
                                             double h, int order) {
  const auto apriori = picard_enclosure(f, s0, u, h);
  if (!apriori) {
    return std::nullopt;
  }
  const Box& b = *apriori;
  const auto k_max = static_cast<std::size_t>(order);
  const auto prefix = full_order_coefficients(f, s0, u, k_max);
  const auto remainder = full_order_coefficients(f, b, u, k_max);
  std::vector<Interval> end_dims;
  std::vector<Interval> flow_dims;
  for (std::size_t i = 0; i < f.state_dim(); ++i) {
    TaylorSeries head(k_max - 1);
    for (std::size_t k = 0; k < k_max; ++k) {
      head[k] = prefix[i][k];
    }
    const Interval rem = remainder[i][k_max];
    const auto taylor_form = [&](const Interval& t) {
      const Interval poly = reference::eval(head, t);
      return rem.is_zero() ? poly : poly + rem * pow(t, order);
    };
    Interval end_i = taylor_form(Interval{h});
    Interval flow_i = taylor_form(Interval{0.0, h});
    if (auto tight = intersect(flow_i, b[i])) {
      flow_i = *tight;
    }
    if (auto tight = intersect(end_i, flow_i)) {
      end_i = *tight;
    }
    end_dims.push_back(end_i);
    flow_dims.push_back(flow_i);
  }
  return ValidatedStep{Box{std::move(flow_dims)}, Box{std::move(end_dims)}};
}

/// Every operation the recording scalar supports, on a 3-state plant with
/// two commands.
struct AllOpsField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const S wave = Interval{0.5} * sin(s[2]) - cos(s[2]) * Interval{0.25};
    out[0] = s[1] * u[0] + wave - Interval{0.1} + 0.0 * s[0];
    out[1] = Interval{0.3} - sqr(s[0]) * Interval{0.01} + (Interval{-0.2} + u[1]);
    out[2] = -(s[0] - s[1]) * Interval{0.05} + Interval{0.5} * u[0] + Interval{0.1, 0.2};
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    const double wave = 0.5 * std::sin(s[2]) - std::cos(s[2]) * 0.25;
    out[0] = s[1] * u[0] + wave - 0.1;
    out[1] = 0.3 - s[0] * s[0] * 0.01 + (-0.2 + u[1]);
    out[2] = -(s[0] - s[1]) * 0.05 + 0.5 * u[0] + 0.15;
  }
};

/// Angles at which sin or cos attains an extremum.
constexpr double kTrigExtrema[] = {-std::numbers::pi, -std::numbers::pi / 2.0, 0.0,
                                   std::numbers::pi / 2.0, std::numbers::pi};

/// `box` with dimension `d` replaced by `value`.
Box with_dim(const Box& box, std::size_t d, const Interval& value) {
  std::vector<Interval> dims(box.intervals().begin(), box.intervals().end());
  dims[d] = value;
  return Box{std::move(dims)};
}

struct StepPlant {
  std::string name;
  std::unique_ptr<Dynamics> f;
  std::vector<Box> boxes;
};

/// Every registered scenario's plant plus dual ACAS Xu and `AllOpsField`,
/// each with seeded start boxes: the scenario's initial cells, their
/// midpoints as point boxes, random sub-boxes, each dimension in turn
/// exactly [0, 0] or subnormal, and the angle dimension (if any) straddling
/// each sin/cos extremum or wider than 7, where interval sin/cos give
/// [-1, 1].
std::vector<StepPlant> step_plants() {
  const std::map<std::string, std::size_t> angle_dim{{"acasxu", acasxu::kIdxPsi},
                                                     {"acasxu_dual", acasxu::kIdxPsi},
                                                     {"all_ops", 2},
                                                     {"pendulum", 0},
                                                     {"unicycle", 2}};
  std::vector<StepPlant> plants;
  for (const scenario::Scenario* scen : scenario::Registry::global().all()) {
    StepPlant p{scen->name(), scen->make_plant(), {}};
    for (const scenario::Cell& cell : scen->make_cells(scenario::Partition{2, 2})) {
      p.boxes.push_back(cell.state.box());
    }
    plants.push_back(std::move(p));
  }
  StepPlant dual{"acasxu_dual", acasxu::make_dual_dynamics(), {}};
  for (const StepPlant& p : plants) {
    if (p.name == "acasxu") {
      dual.boxes = p.boxes;
    }
  }
  plants.push_back(std::move(dual));
  plants.push_back({"all_ops",
                    make_dynamics(3, 2, AllOpsField{}),
                    {Box{Interval{0.1, 0.3}, Interval{-0.5, 0.5}, Interval{0.2, 0.4}},
                     Box{Interval{-1.0, -0.9}, Interval{2.0, 2.5}, Interval{-3.0, -2.5}}}});

  Rng rng(1717);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (StepPlant& p : plants) {
    const std::vector<Box> cells = p.boxes;
    for (const Box& cell : cells) {
      std::vector<Interval> mid;
      std::vector<Interval> sub;
      for (const Interval& iv : cell.intervals()) {
        mid.emplace_back(iv.mid());
        const double a = rng.uniform(iv.lo(), iv.hi());
        const double b = rng.uniform(iv.lo(), iv.hi());
        sub.emplace_back(std::min(a, b), std::max(a, b));
      }
      p.boxes.emplace_back(std::move(mid));
      p.boxes.emplace_back(std::move(sub));
    }
    for (std::size_t d = 0; d < cells.front().dim(); ++d) {
      p.boxes.push_back(with_dim(cells.front(), d, Interval{}));
      p.boxes.push_back(with_dim(cells.back(), d, Interval{-tiny, 3.0 * tiny}));
    }
    const auto angle = angle_dim.find(p.name);
    if (angle != angle_dim.end()) {
      for (const double e : kTrigExtrema) {
        for (const double w : {1e-3, 0.3, 3.6}) {
          p.boxes.push_back(with_dim(cells.front(), angle->second, Interval{e - w, e + w}));
        }
        p.boxes.push_back(with_dim(cells.back(), angle->second, Interval{e}));
      }
    }
  }
  return plants;
}

TEST(TaylorIntegrator, StepMatchesFullOrderReferenceBitForBit) {
  Rng rng(4711);
  for (const StepPlant& p : step_plants()) {
    int compared = 0;
    for (int order = 1; order <= TaylorIntegrator::kMaxOrder; ++order) {
      const TaylorIntegrator integrator(TaylorIntegrator::Config{order, {}});
      for (std::size_t b = 0; b < p.boxes.size(); ++b) {
        Vec u(p.f->command_dim(), 0.0);
        if (b % 3 != 0) {
          for (double& uc : u) {
            uc = rng.uniform(-1.0, 1.0);
          }
        }
        const double h = b % 2 == 0 ? 0.1 : 0.025;
        const auto got = integrator.step(*p.f, p.boxes[b], u, h);
        const auto want = full_order_step(*p.f, p.boxes[b], u, h, order);
        ASSERT_EQ(got.has_value(), want.has_value()) << p.name << " order " << order;
        if (!got) {
          continue;
        }
        EXPECT_TRUE(same_bits(got->flow, want->flow))
            << p.name << " order " << order << " box " << b << " flow";
        EXPECT_TRUE(same_bits(got->end, want->end))
            << p.name << " order " << order << " box " << b << " end";
        ++compared;
      }
    }
    EXPECT_GE(compared, TaylorIntegrator::kMaxOrder * 10)
        << p.name << ": too few steps succeeded to compare";
  }
}

/// The ACAS Xu kinematics as written before `sincos`: separate sin and cos
/// calls on the same angle.
struct UnfusedKinematicsField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const S sp = sin(s[acasxu::kIdxPsi]);
    const S cp = cos(s[acasxu::kIdxPsi]);
    out[acasxu::kIdxX] = s[acasxu::kIdxVint] * (-sp) + u[0] * s[acasxu::kIdxY];
    out[acasxu::kIdxY] = s[acasxu::kIdxVint] * cp - s[acasxu::kIdxVown] - u[0] * s[acasxu::kIdxX];
    out[acasxu::kIdxPsi] = u.size() > 1 ? u[1] - u[0] : -u[0];
    out[acasxu::kIdxVown] = 0.0 * s[acasxu::kIdxVown];
    out[acasxu::kIdxVint] = 0.0 * s[acasxu::kIdxVint];
  }
};

/// The unicycle field as written before `sincos`.
struct UnfusedUnicycleField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = Interval{1.0} * cos(s[2]) + 0.0 * s[0];
    out[1] = Interval{1.0} * sin(s[2]) + 0.0 * s[1];
    out[2] = u[0] + 0.0 * s[2];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = 1.0 * std::cos(s[2]);
    out[1] = 1.0 * std::sin(s[2]);
    out[2] = u[0];
  }
};

TEST(FusedSinCos, FieldsMatchUnfusedCopiesBitForBit) {
  struct FieldPair {
    const char* name;
    std::unique_ptr<Dynamics> fused;
    std::unique_ptr<Dynamics> unfused;
    std::size_t angle;
  };
  FieldPair pairs[] = {
      {"acasxu", acasxu::make_dynamics(), make_dynamics(5, 1, UnfusedKinematicsField{}),
       acasxu::kIdxPsi},
      {"acasxu_dual", acasxu::make_dual_dynamics(), make_dynamics(5, 2, UnfusedKinematicsField{}),
       acasxu::kIdxPsi},
      {"unicycle", scenario::Registry::global().at("unicycle").make_plant(),
       make_dynamics(3, 1, UnfusedUnicycleField{}), 2},
  };
  Rng rng(2718);
  for (const FieldPair& p : pairs) {
    const std::size_t dim = p.fused->state_dim();
    const std::size_t cmd = p.fused->command_dim();
    for (int trial = 0; trial < 60; ++trial) {
      const double angle_center =
          trial < 5 ? kTrigExtrema[trial] : rng.uniform(-4.0, 4.0);
      const double angle_rad = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.5);

      Vec xs(dim);
      Vec us(cmd);
      std::vector<Interval> xi(dim);
      std::vector<Interval> ui(cmd);
      for (std::size_t d = 0; d < dim; ++d) {
        xs[d] = d == p.angle ? angle_center : rng.uniform(-900.0, 900.0);
        const double rad = d == p.angle ? angle_rad : rng.uniform(0.0, 50.0);
        xi[d] = Interval::centered(xs[d], rad);
      }
      for (std::size_t c = 0; c < cmd; ++c) {
        us[c] = rng.uniform(-1.0, 1.0);
        ui[c] = Interval{us[c]};
      }

      Vec xd_fused(dim);
      Vec xd_unfused(dim);
      p.fused->eval(xs, us, xd_fused);
      p.unfused->eval(xs, us, xd_unfused);
      std::vector<Interval> xi_fused(dim);
      std::vector<Interval> xi_unfused(dim);
      p.fused->eval(xi, ui, xi_fused);
      p.unfused->eval(xi, ui, xi_unfused);

      const auto order = static_cast<std::size_t>(trial % 9);
      std::vector<TaylorSeries> xt(dim, TaylorSeries(order));
      for (std::size_t d = 0; d < dim; ++d) {
        xt[d][0] = xi[d];
        for (std::size_t k = 1; k <= order; ++k) {
          xt[d][k] = Interval::centered(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.1));
        }
      }
      for (std::size_t c = 0; c < cmd; ++c) {
        xt.emplace_back(order, ui[c]);
      }
      const auto xt_fused = reference::sweep(p.fused->tape(), xt, order);
      const auto xt_unfused = reference::sweep(p.unfused->tape(), xt, order);

      for (std::size_t d = 0; d < dim; ++d) {
        EXPECT_TRUE(same_bits(xd_fused[d], xd_unfused[d])) << p.name << " double dim " << d;
        EXPECT_TRUE(same_bits(xi_fused[d], xi_unfused[d])) << p.name << " Interval dim " << d;
        EXPECT_TRUE(same_bits(xt_fused[d], xt_unfused[d]))
            << p.name << " tape order " << order << " dim " << d;
      }
    }
  }
}

/// Random series coefficient: exactly [0, 0] with probability 0.3, else a
/// degenerate or narrow interval in [-3, 3].
Interval random_coefficient(Rng& rng) {
  if (rng.chance(0.3)) {
    return Interval{};
  }
  const double m = rng.uniform(-3.0, 3.0);
  return rng.chance(0.3) ? Interval{m} : Interval::centered(m, rng.uniform(0.0, 0.05));
}

/// The functor evaluated over series, its recorded tape evaluated over the
/// same series node by node, and the tape's sweep all agree bit for bit.
template <class F>
void expect_recorded_faithfully(const char* name, std::size_t dim, std::size_t cmd, const F& f,
                                Rng& rng) {
  const auto model = make_dynamics(dim, cmd, f);
  for (int trial = 0; trial < 32; ++trial) {
    const auto order = static_cast<std::size_t>(trial % (TaylorIntegrator::kMaxOrder + 1));
    std::vector<TaylorSeries> inputs(dim + cmd, TaylorSeries(order));
    for (TaylorSeries& x : inputs) {
      for (std::size_t k = 0; k <= order; ++k) {
        x[k] = random_coefficient(rng);
      }
    }
    const std::span<const TaylorSeries> all{inputs};
    std::vector<TaylorSeries> direct(dim);
    f(all.first(dim), all.subspan(dim), std::span<TaylorSeries>{direct});
    const auto recorded = reference::eval_tape(model->tape(), all.first(dim), all.subspan(dim));
    const auto swept = reference::sweep(model->tape(), all, order);
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_TRUE(same_bits(direct[d], recorded[d])) << name << " order " << order << " dim " << d;
      EXPECT_TRUE(same_bits(direct[d], swept[d])) << name << " order " << order << " dim " << d;
    }
  }
}

TEST(FieldTape, RecordingMatchesFunctorOverSeries) {
  Rng rng(3141);
  expect_recorded_faithfully("acasxu", 5, 1, acasxu::KinematicsField{}, rng);
  expect_recorded_faithfully("acasxu_dual", 5, 2, acasxu::DualKinematicsField{}, rng);
  expect_recorded_faithfully("acasxu_unfused", 5, 1, UnfusedKinematicsField{}, rng);
  expect_recorded_faithfully("unicycle_unfused", 3, 1, UnfusedUnicycleField{}, rng);
  expect_recorded_faithfully("decay", 1, 1, DecayField{}, rng);
  expect_recorded_faithfully("oscillator", 2, 1, OscillatorField{}, rng);
  expect_recorded_faithfully("double_integrator", 2, 1, DoubleIntegratorField{}, rng);
  expect_recorded_faithfully("sine", 1, 1, SineField{}, rng);
  expect_recorded_faithfully("soft_pendulum", 2, 1, SoftPendulumField{}, rng);
  expect_recorded_faithfully("all_ops", 3, 2, AllOpsField{}, rng);
}

/// Leaves out[1] unwritten.
struct UnwrittenOutputField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * u[0];
  }
};

/// Reads a default-constructed scalar: 0 over double and Interval, but an
/// operand the tape never recorded.
struct DefaultVariableField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const S zero{};
    out[0] = s[1] + zero * u[0];
    out[1] = -s[0];
  }
};

TEST(FieldTape, RecordingRejectsUnwrittenOutputsAndUnrecordedOperands) {
  EXPECT_THROW(make_dynamics(2, 1, UnwrittenOutputField{}), std::invalid_argument);
  EXPECT_THROW(make_dynamics(2, 1, DefaultVariableField{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The affine step reads Φ_K, Ψ_K, their tails and h·e^r from a per-thread
// table keyed by (A, h, K); it must produce the bits of the step that
// computed them every time.
// ---------------------------------------------------------------------------

/// `TaylorIntegrator::step_affine` as it was before the propagators were
/// kept per (A, h, K): every step builds the interval A, Φ_K, Ψ_K, the tail
/// and h·e^r itself. Counts its tail fallbacks in `tail_fallbacks`.
std::optional<AffineValidatedStep> per_step_affine(const TaylorIntegrator& integrator,
                                                   const Dynamics& f, const AffineSet& s0,
                                                   const Vec& u, double h, int& tail_fallbacks) {
  const ValidatedIntegrator& base = integrator;
  const LinearPart* lp = f.linear_part();
  if (lp == nullptr) {
    return base.ValidatedIntegrator::step_affine(f, s0, u, h);
  }
  const auto boxed = integrator.step(f, s0.concretize(), u, h);
  if (!boxed) {
    return std::nullopt;
  }
  const std::size_t n = f.state_dim();
  const std::size_t cmd_dim = f.command_dim();
  const int k_order = integrator.config().order;
  const auto order = static_cast<std::size_t>(k_order);
  IntervalMatrix a_mat(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a_mat.at(i, j) = Interval{lp->a[i * n + j]};
    }
  }
  const IntervalMatrix ah = Interval{h} * a_mat;
  const double r = ah.inf_norm();
  if (!(r <= static_cast<double>(order) + 1.0)) {
    ++tail_fallbacks;
    return base.ValidatedIntegrator::step_affine(f, s0, u, h);
  }
  IntervalMatrix phi = IntervalMatrix::identity(n);
  IntervalMatrix psi = Interval{h} * IntervalMatrix::identity(n);
  IntervalMatrix power = IntervalMatrix::identity(n);
  Interval factorial{1.0};
  for (std::size_t k = 1; k <= order; ++k) {
    power = power * ah;
    factorial *= Interval{static_cast<double>(k)};
    phi = phi + (Interval{1.0} / factorial) * power;
    psi = psi + (Interval{h} / (factorial * Interval{static_cast<double>(k + 1)})) * power;
  }
  const Interval r_iv{0.0, r};
  Interval tail =
      pow(r_iv, k_order + 1) / (factorial * Interval{static_cast<double>(order + 1)});
  tail = tail / (Interval{1.0} - r_iv / Interval{static_cast<double>(order + 2)});
  const double t_phi = tail.mag();
  phi.inflate(t_phi);
  psi.inflate(rnd::mul_up(h, t_phi));

  std::vector<Interval> bu(n);
  for (std::size_t i = 0; i < n; ++i) {
    Interval acc;
    for (std::size_t k = 0; k < cmd_dim; ++k) {
      acc += Interval{lp->b[i * cmd_dim + k]} * Interval{u[k]};
    }
    bu[i] = acc;
  }
  std::vector<Interval> w(n);
  if (lp->residual) {
    lp->residual(boxed->flow.intervals(), w);
  } else {
    const Box fb = eval_on_box(f, boxed->flow, u);
    for (std::size_t i = 0; i < n; ++i) {
      Interval lin;
      for (std::size_t j = 0; j < n; ++j) {
        lin += a_mat.at(i, j) * boxed->flow[j];
      }
      w[i] = fb[i] - lin - bu[i];
    }
  }
  std::vector<Interval> w_mid(n);
  double rad_inf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double m_i = w[i].mid();
    w_mid[i] = Interval{m_i};
    rad_inf = std::max(rad_inf, (w[i] - Interval{m_i}).mag());
  }
  const double deviation = (Interval{h} * exp(r_iv) * Interval{rad_inf}).mag();
  std::vector<Interval> offset(n);
  for (std::size_t i = 0; i < n; ++i) {
    Interval acc{-deviation, deviation};
    for (std::size_t j = 0; j < n; ++j) {
      acc += psi.at(i, j) * (bu[j] + w_mid[j]);
    }
    offset[i] = acc;
  }
  AffineSet end = s0.linear_image(phi, offset);
  std::vector<Interval> end_dims;
  for (std::size_t i = 0; i < n; ++i) {
    const Interval affine_range = end[i].range();
    Interval tight = boxed->end[i];
    if (auto isect = intersect(affine_range, boxed->end[i])) {
      tight = *isect;
    }
    end_dims.push_back(tight);
    if (affine_range.width() > boxed->end[i].width()) {
      end.replace_component(i, tight);
    }
  }
  return AffineValidatedStep{boxed->flow, std::move(end), Box{std::move(end_dims)}};
}

bool same_bits(const AffineSet& a, const AffineSet& b) {
  if (a.dim() != b.dim() || a.noise().count() != b.noise().count()) {
    return false;
  }
  const auto same_term = [](const std::pair<std::uint32_t, double>& x,
                            const std::pair<std::uint32_t, double>& y) {
    return x.first == y.first && same_bits(x.second, y.second);
  };
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (!same_bits(a[i].center(), b[i].center()) || !same_bits(a[i].error(), b[i].error()) ||
        !std::equal(a[i].terms().begin(), a[i].terms().end(), b[i].terms().begin(),
                    b[i].terms().end(), same_term)) {
      return false;
    }
  }
  return true;
}

bool same_bits(const std::optional<AffineValidatedStep>& a,
               const std::optional<AffineValidatedStep>& b) {
  if (!a || !b) {
    return a.has_value() == b.has_value();
  }
  return same_bits(a->flow, b->flow) && same_bits(a->end, b->end) &&
         same_bits(a->end_box, b->end_box);
}

/// x' = 60·v, v' = u: ‖Ah‖∞ = 60h exceeds K + 1 at the larger step sizes
/// and low orders, while the triangular field keeps the boxed step
/// enclosing.
struct FastIntegratorField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = 60.0 * s[1] + 0.0 * s[0];
    out[1] = u[0] + 0.0 * s[1];
  }
};

struct AffinePlant {
  std::string name;
  std::unique_ptr<Dynamics> f;
  std::vector<std::pair<AffineSet, Vec>> starts;
};

/// The pendulum, plants with other A's (two sharing one A, one of them on
/// the generic residual branch), the rotation's A with +0.0 and with −0.0
/// entries, and a plant whose larger steps fail the tail bound; each with
/// a lifted box under the zero command and a correlated set under another.
std::vector<AffinePlant> affine_plants() {
  const auto rotation = [](double zero) {
    LinearPart lp{{zero, 1.0, -1.0, zero}, {0.0, 0.0}, {}};
    lp.residual = [](std::span<const Interval>, std::span<Interval> out) {
      out[0] = Interval{};
      out[1] = Interval{};
    };
    return make_dynamics(2, 1, OscillatorField{}, std::move(lp));
  };
  std::vector<AffinePlant> plants;
  plants.push_back({"pendulum", scenario::Registry::global().at("pendulum").make_plant(), {}});
  plants.push_back({"soft_pendulum",
                    make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true)), {}});
  plants.push_back({"soft_pendulum_implicit",
                    make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(false)),
                    {}});
  plants.push_back({"rotation", rotation(0.0), {}});
  plants.push_back({"rotation_negative_zero", rotation(-0.0), {}});
  plants.push_back({"fast_integrator",
                    make_dynamics(2, 1, FastIntegratorField{},
                                  LinearPart{{0.0, 60.0, 0.0, 0.0}, {0.0, 1.0}, {}}),
                    {}});
  IntervalMatrix shear(2, 2);
  shear.at(0, 0) = Interval{1.0};
  shear.at(0, 1) = Interval{0.5};
  shear.at(1, 0) = Interval{-0.25, -0.2};
  shear.at(1, 1) = Interval{1.0};
  const Box box{Interval{-0.3, -0.225}, Interval{0.1, 0.2}};
  for (AffinePlant& p : plants) {
    p.starts.emplace_back(AffineSet::from_box(box), Vec{0.0});
    p.starts.emplace_back(AffineSet::from_box(box).linear_image(shear), Vec{0.5});
  }
  return plants;
}

/// 20 distinct step sizes, visited three times each in an interleaved
/// order: with six plants (five A's) and 15 orders, far more keys than the
/// table holds, so it replaces entries throughout.
std::vector<double> interleaved_step_sizes() {
  std::vector<double> hs;
  for (int i = 0; i < 60; ++i) {
    hs.push_back(0.005 * static_cast<double>((i * 7) % 20 + 1));
  }
  return hs;
}

TEST(AffineStep, PropagatorTableMatchesPerStepReferenceBitForBit) {
  const std::vector<AffinePlant> plants = affine_plants();
  std::vector<TaylorIntegrator> integrators;
  for (int order = 1; order <= TaylorIntegrator::kMaxOrder; ++order) {
    integrators.emplace_back(TaylorIntegrator::Config{order, {}});
  }
  const auto tail_fallbacks = [] {
    return obs::Registry::instance().snapshot().counter("ode.affine_tail_fallbacks");
  };
  obs::set_enabled(true);
  const std::uint64_t counted_before = tail_fallbacks();
  int expected_fallbacks = 0;
  int compared = 0;
  for (const double h : interleaved_step_sizes()) {
    for (const AffinePlant& p : plants) {
      for (const TaylorIntegrator& integrator : integrators) {
        for (const auto& [s0, u] : p.starts) {
          const auto want = per_step_affine(integrator, *p.f, s0, u, h, expected_fallbacks);
          const auto got = integrator.step_affine(*p.f, s0, u, h);
          EXPECT_TRUE(same_bits(got, want)) << p.name << " order " << integrator.config().order
                                            << " h " << h;
          compared += got.has_value() ? 1 : 0;
        }
      }
    }
  }
  const std::uint64_t counted = tail_fallbacks() - counted_before;
  obs::set_enabled(false);
  EXPECT_GT(expected_fallbacks, 0);
  EXPECT_EQ(counted, static_cast<std::uint64_t>(expected_fallbacks));
  EXPECT_GT(compared, 10000);
}

/// One integrator stepped from four threads, each over the interleaved
/// step sizes from its own offset, so the threads' tables hold different
/// keys at any moment.
TEST(AffineStepThreads, ConcurrentStepsMatchSingleThread) {
  const std::vector<AffinePlant> plants = affine_plants();
  const TaylorIntegrator integrator;
  const std::vector<double> hs = interleaved_step_sizes();
  struct Job {
    const AffinePlant* plant;
    std::size_t start;
    double h;
  };
  std::vector<Job> jobs;
  for (const double h : hs) {
    for (const AffinePlant& p : plants) {
      for (std::size_t s = 0; s < p.starts.size(); ++s) {
        jobs.push_back({&p, s, h});
      }
    }
  }
  const auto run = [&](const Job& job) {
    const auto& [s0, u] = job.plant->starts[job.start];
    return integrator.step_affine(*job.plant->f, s0, u, job.h);
  };
  std::vector<std::optional<AffineValidatedStep>> sequential;
  for (const Job& job : jobs) {
    sequential.push_back(run(job));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::optional<AffineValidatedStep>>> results(
      kThreads, std::vector<std::optional<AffineValidatedStep>>(jobs.size()));
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          const std::size_t j = (k + t * jobs.size() / kThreads) % jobs.size();
          results[t][j] = run(jobs[j]);
        }
      });
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_TRUE(same_bits(results[t][j], sequential[j]))
          << "thread " << t << " " << jobs[j].plant->name << " h " << jobs[j].h;
    }
  }
}

}  // namespace
}  // namespace nncs
