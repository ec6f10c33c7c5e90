#include "ode/validated_integrator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace nncs {

std::optional<AffineValidatedStep> ValidatedIntegrator::step_affine(const Dynamics& f,
                                                                    const AffineSet& s0,
                                                                    const Vec& u, double h) const {
  // Generic fallback: box the set, take the boxed step, re-lift. Sound, but
  // correlations between dimensions are forgotten for this step.
  const auto boxed = step(f, s0.concretize(), u, h);
  if (!boxed) {
    return std::nullopt;
  }
  NNCS_COUNT("ode.affine_boxed_fallbacks", 1);
  AffineValidatedStep out;
  out.flow = boxed->flow;
  out.end = AffineSet::from_box(boxed->end);
  out.end_box = boxed->end;
  return out;
}

std::optional<Box> picard_enclosure(const Dynamics& f, const Box& s0, const Vec& u, double h,
                                    const PicardConfig& config) {
  if (h <= 0.0 || !std::isfinite(h)) {
    throw std::invalid_argument("picard_enclosure: step size must be positive and finite");
  }
  NNCS_SPAN("picard");
  NNCS_COUNT("ode.enclosure_attempts", 1);
  // Per-thread buffers, reused by every iteration; only the result is new.
  thread_local std::vector<Interval> command;
  thread_local std::vector<Interval> candidate;
  thread_local std::vector<Interval> field;
  command.assign(u.begin(), u.end());
  candidate.assign(s0.intervals().begin(), s0.intervals().end());
  field.resize(f.state_dim());
  std::vector<Interval> image(s0.dim());
  const Interval tau{0.0, h};
  // image = s0 + [0,h] * f(candidate)  (the interval Picard operator).
  const auto apply = [&] {
    f.eval(candidate, command, field);
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = s0[i] + tau * field[i];
    }
  };
  // First candidate: one application of the operator to s0 itself, inflated.
  apply();
  for (std::size_t d = 0; d < image.size(); ++d) {
    candidate[d] = image[d].inflated(1e-12 + config.initial_inflation * image[d].mag());
  }
  double escalation = config.growth;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    apply();
    if (std::equal(image.begin(), image.end(), candidate.begin(),
                   [](const Interval& img, const Interval& c) { return c.contains(img); })) {
      // The operator maps `candidate` into itself, so every solution
      // starting in s0 stays inside `candidate` on [0, h]; the (tighter)
      // image is itself a valid enclosure.
      return Box{std::move(image)};
    }
    NNCS_COUNT("ode.picard_retries", 1);
    // Violation-driven inflation: grow each bound past its observed
    // violation by an escalating factor. Proportional growth converges in a
    // couple of iterations when h·L < 1 and avoids the knife-edge chase a
    // magnitude-relative inflation runs into when a dimension crosses zero.
    for (std::size_t d = 0; d < image.size(); ++d) {
      Interval& c = candidate[d];
      const double lo_violation = std::max(0.0, c.lo() - image[d].lo());
      const double hi_violation = std::max(0.0, image[d].hi() - c.hi());
      const double lo = std::min(c.lo(), image[d].lo()) - escalation * lo_violation - 1e-12;
      const double hi = std::max(c.hi(), image[d].hi()) + escalation * hi_violation + 1e-12;
      c = Interval{lo, hi};
    }
    escalation *= config.growth;
  }
  NNCS_COUNT("ode.picard_failures", 1);
  return std::nullopt;
}

TaylorIntegrator::TaylorIntegrator() : TaylorIntegrator(Config{}) {}

TaylorIntegrator::TaylorIntegrator(Config config) : config_(std::move(config)) {
  if (config_.order < 1) {
    throw std::invalid_argument("TaylorIntegrator: order must be >= 1");
  }
  if (config_.order > kMaxOrder) {
    throw std::invalid_argument("TaylorIntegrator: order above kMaxOrder");
  }
}

std::optional<ValidatedStep> TaylorIntegrator::step(const Dynamics& f, const Box& s0, const Vec& u,
                                                    double h) const {
  const auto apriori = picard_enclosure(f, s0, u, h, config_.picard);
  if (!apriori) {
    return std::nullopt;
  }
  NNCS_SPAN("taylor_tighten");
  const Box& b = *apriori;
  const FieldTape& tape = f.tape();
  const auto order = static_cast<std::size_t>(config_.order);
  const std::size_t stride = order + 1;
  const std::size_t dim = tape.state_dim();
  const std::size_t inputs = dim + tape.command_dim();
  const std::size_t lane_size = tape.nodes().size() * stride;
  thread_local std::vector<Interval> lanes;
  lanes.resize(2 * lane_size);
  const std::span<Interval> prefix{lanes.data(), lane_size};
  const std::span<Interval> remainder{lanes.data() + lane_size, lane_size};
  // Prefix coefficients 0..K-1 seeded at the tight initial box; the order-K
  // coefficient seeded at the a-priori enclosure bounds the Lagrange
  // remainder (the K-th solution coefficient along the whole step stays
  // inside the coefficient computed over B). Commands are constant series.
  for (std::size_t i = 0; i < inputs; ++i) {
    prefix[i * stride] = i < dim ? s0[i] : Interval{u[i - dim]};
    remainder[i * stride] = i < dim ? b[i] : Interval{u[i - dim]};
  }
  std::size_t passes = 0;
  std::size_t terms = 0;
  // Pass k of a lane: coefficient k of every tape node, then the solution's
  // coefficient k+1 = f_k / (k+1) (the Picard/Moore recurrence).
  const auto pass = [&](std::span<Interval> lane, std::size_t k) {
    terms += tape.pass(lane, stride, k);
    ++passes;
    const Interval divisor{static_cast<double>(k + 1)};
    for (std::size_t i = 0; i < inputs; ++i) {
      lane[i * stride + k + 1] =
          i < dim ? lane[tape.outputs()[i] * stride + k] / divisor : Interval{};
    }
  };
  for (std::size_t k = 0; k < order; ++k) {
    pass(remainder, k);
    if (k + 1 < order) {
      pass(prefix, k);
    }
  }
  NNCS_COUNT("ode.field_evals", passes);
  NNCS_COUNT("ode.series_terms", terms);

  const Interval t_end{h};
  const Interval t_flow{0.0, h};
  const Interval end_power = pow(t_end, config_.order);
  const Interval flow_power = pow(t_flow, config_.order);
  std::vector<Interval> end_dims(dim);
  std::vector<Interval> flow_dims(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    const auto head = prefix.subspan(i * stride, order);
    const Interval rem = remainder[i * stride + order];
    Interval end_i = horner(head, t_end);
    Interval flow_i = horner(head, t_flow);
    // An exactly-zero remainder adds nothing; adding it would round outward.
    if (!rem.is_zero()) {
      end_i += rem * end_power;
      flow_i += rem * flow_power;
    }
    // Both the Taylor form and the a-priori enclosure are sound, so their
    // intersection is too (and is never empty: both contain the true set).
    if (auto tight = intersect(flow_i, b[i])) {
      flow_i = *tight;
    }
    if (auto tight = intersect(end_i, flow_i)) {
      end_i = *tight;
    }
    end_dims[i] = end_i;
    flow_dims[i] = flow_i;
  }
  return ValidatedStep{Box{std::move(flow_dims)}, Box{std::move(end_dims)}};
}

namespace {

/// The part of an affine step that depends only on (A, h, K).
struct AffinePropagators {
  /// The bit patterns of A's entries, h and K: bits keep −0.0 and NaN
  /// entries apart, and a plant's address could be reused by another plant.
  std::vector<std::uint64_t> key;
  IntervalMatrix a;      ///< A as point intervals
  bool tail_ok = false;  ///< r = ‖Ah‖∞ <= K + 1, so the tail bound holds
  IntervalMatrix phi;    ///< Φ_K, tail folded in
  IntervalMatrix psi;    ///< Ψ_K, tail folded in
  Interval h_exp_r;      ///< h·e^{[0, r]}, the left factor of the deviation bound
};

AffinePropagators make_propagators(std::span<const double> a, std::size_t n, double h,
                                   int k_order) {
  AffinePropagators p;
  const auto order = static_cast<std::size_t>(k_order);
  p.a = IntervalMatrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      p.a.at(i, j) = Interval{a[i * n + j]};
    }
  }
  const IntervalMatrix ah = Interval{h} * p.a;
  const double r = ah.inf_norm();
  // ‖Ah‖∞ too large for the K-term tail bound (the geometric factor needs
  // r < K+2): the step boxes instead, which a smaller sub-step would avoid.
  p.tail_ok = r <= static_cast<double>(order) + 1.0;
  if (!p.tail_ok) {
    return p;
  }
  // Variation of constants: s(h) = e^{Ah}s(0) + Ψ·B·u + ∫e^{A(h−τ)}g dτ
  // with Ψ = ∫_0^h e^{Aσ}dσ. Enclose the exponential series by its K-term
  // interval Taylor prefix:
  //   Φ_K = Σ_{k<=K} (Ah)^k/k!,   Ψ_K = Σ_{k<=K} (Ah)^k·h/(k+1)!.
  p.phi = IntervalMatrix::identity(n);
  p.psi = Interval{h} * IntervalMatrix::identity(n);
  IntervalMatrix power = IntervalMatrix::identity(n);
  Interval factorial{1.0};
  for (std::size_t k = 1; k <= order; ++k) {
    power = power * ah;
    factorial *= Interval{static_cast<double>(k)};
    p.phi = p.phi + (Interval{1.0} / factorial) * power;
    p.psi = p.psi + (Interval{h} / (factorial * Interval{static_cast<double>(k + 1)})) * power;
  }
  // Rigorous tails: every entry of (Ah)^k is within ±r^k, so the dropped
  // terms are entrywise within ±t for Φ (and ±h·t for Ψ, whose k-th term
  // carries the extra factor h/(k+1)):
  //   t = r^{K+1}/(K+1)! · 1/(1 − r/(K+2)),   valid for r < K+2.
  const Interval r_iv{0.0, r};
  Interval tail =
      pow(r_iv, k_order + 1) / (factorial * Interval{static_cast<double>(order + 1)});
  tail = tail / (Interval{1.0} - r_iv / Interval{static_cast<double>(order + 2)});
  const double t_phi = tail.mag();
  p.phi.inflate(t_phi);
  p.psi.inflate(rnd::mul_up(h, t_phi));
  p.h_exp_r = Interval{h} * exp(r_iv);
  return p;
}

/// The propagators of (A, h, K) from this thread's table of the last 16 keys
/// (a closed loop needs at most M per plant). Engine workers share one
/// integrator and each fills its own table, so no lock is needed; the values
/// are pure functions of the key, so a step reads the bits it would compute.
const AffinePropagators& propagators(std::span<const double> a, std::size_t n, double h,
                                     int order) {
  constexpr std::size_t kSlots = 16;
  thread_local std::array<AffinePropagators, kSlots> table;  // unused slots: empty key
  thread_local std::size_t next = 0;  // the oldest slot once all are filled
  thread_local std::vector<std::uint64_t> key;
  key.resize(a.size() + 2);
  std::ranges::transform(a, key.begin(),
                         [](double v) { return std::bit_cast<std::uint64_t>(v); });
  key[a.size()] = std::bit_cast<std::uint64_t>(h);
  key[a.size() + 1] = static_cast<std::uint64_t>(order);
  for (const AffinePropagators& p : table) {
    if (p.key == key) {
      return p;
    }
  }
  AffinePropagators& slot = table[next];
  slot = make_propagators(a, n, h, order);
  slot.key = key;
  next = (next + 1) % kSlots;
  return slot;
}

}  // namespace

std::optional<AffineValidatedStep> TaylorIntegrator::step_affine(const Dynamics& f,
                                                                const AffineSet& s0, const Vec& u,
                                                                double h) const {
  const LinearPart* lp = f.linear_part();
  if (lp == nullptr) {
    return ValidatedIntegrator::step_affine(f, s0, u, h);
  }
  // The boxed step supplies both the flow enclosure (error checks stay on
  // boxes) and the per-dimension tightness floor.
  const auto boxed = step(f, s0.concretize(), u, h);
  if (!boxed) {
    return std::nullopt;
  }
  NNCS_SPAN("affine_step");
  const std::size_t n = f.state_dim();
  const std::size_t cmd_dim = f.command_dim();
  const AffinePropagators& prop = propagators({lp->a.data(), n * n}, n, h, config_.order);
  if (!prop.tail_ok) {
    NNCS_COUNT("ode.affine_tail_fallbacks", 1);
    return ValidatedIntegrator::step_affine(f, s0, u, h);
  }

  // Constant drive B·u.
  std::vector<Interval> bu(n);
  for (std::size_t i = 0; i < n; ++i) {
    Interval acc;
    for (std::size_t k = 0; k < cmd_dim; ++k) {
      acc += Interval{lp->b[i * cmd_dim + k]} * Interval{u[k]};
    }
    bu[i] = acc;
  }
  // Nonlinear residual g(s) = f(s,u) − A·s − B·u, enclosed over the flow
  // enclosure (which contains s(τ) for every τ in [0, h]). Use the declared
  // tight extension when the model supplies one — the generic interval
  // subtraction is sound but blows up when g nearly cancels A·s (see
  // LinearPart docs).
  std::vector<Interval> w(n);
  if (lp->residual) {
    lp->residual(boxed->flow.intervals(), w);
  } else {
    const Box fb = eval_on_box(f, boxed->flow, u);
    for (std::size_t i = 0; i < n; ++i) {
      Interval lin;
      for (std::size_t j = 0; j < n; ++j) {
        lin += prop.a.at(i, j) * boxed->flow[j];
      }
      w[i] = fb[i] - lin - bu[i];
    }
  }
  // Split g(s(τ)) = m + δ(τ) around the enclosure midpoint m. The drift
  // part convolves exactly, ∫e^{A(h−τ)}m dτ = Ψ·m, and flows into the
  // offset (a center shift, not error — symmetrizing it would turn any
  // consistent drift into compounding wrap error). Only the deviation
  // δ(τ) ∈ [w]−m needs the crude entrywise bound ±h·e^r·‖rad‖∞.
  std::vector<Interval> w_mid(n);
  double rad_inf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double m_i = w[i].mid();
    w_mid[i] = Interval{m_i};
    rad_inf = std::max(rad_inf, (w[i] - Interval{m_i}).mag());
  }
  const double deviation = (prop.h_exp_r * Interval{rad_inf}).mag();

  std::vector<Interval> offset(n);
  for (std::size_t i = 0; i < n; ++i) {
    Interval acc{-deviation, deviation};
    for (std::size_t j = 0; j < n; ++j) {
      acc += prop.psi.at(i, j) * (bu[j] + w_mid[j]);
    }
    offset[i] = acc;
  }
  AffineSet end = s0.linear_image(prop.phi, offset);

  // Per-dimension floor: the boxed Taylor step is sound too, so intersecting
  // ranges is sound, and a dimension whose affine range is wider than the
  // boxed one gains nothing from its correlations — re-lift it from the
  // tighter interval so the affine step is never worse than boxing.
  std::vector<Interval> end_dims;
  end_dims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Interval affine_range = end[i].range();
    Interval tight = boxed->end[i];
    if (auto isect = intersect(affine_range, boxed->end[i])) {
      tight = *isect;
    }
    end_dims.push_back(tight);
    if (affine_range.width() > boxed->end[i].width()) {
      NNCS_COUNT("ode.affine_dim_fallbacks", 1);
      end.replace_component(i, tight);
    }
  }
  return AffineValidatedStep{boxed->flow, std::move(end), Box{std::move(end_dims)}};
}

EulerIntegrator::EulerIntegrator(PicardConfig config) : config_(std::move(config)) {}

std::optional<ValidatedStep> EulerIntegrator::step(const Dynamics& f, const Box& s0, const Vec& u,
                                                   double h) const {
  const auto apriori = picard_enclosure(f, s0, u, h, config_);
  if (!apriori) {
    return std::nullopt;
  }
  const Box& b = *apriori;
  const Box fb = eval_on_box(f, b, u);
  const Interval t_end{h};
  std::vector<Interval> end_dims;
  end_dims.reserve(s0.dim());
  for (std::size_t i = 0; i < s0.dim(); ++i) {
    Interval end_i = s0[i] + t_end * fb[i];
    if (auto tight = intersect(end_i, b[i])) {
      end_i = *tight;
    }
    end_dims.push_back(end_i);
  }
  return ValidatedStep{b, Box{std::move(end_dims)}};
}

Box Flowpipe::hull_box() const {
  if (segments.empty()) {
    return end;
  }
  Box acc = segments.front();
  for (std::size_t i = 1; i < segments.size(); ++i) {
    acc = hull(acc, segments[i]);
  }
  return acc;
}

namespace {

/// Algorithm 1's sub-step loop for either start set. `advance(pipe, h)` takes
/// one validated step of size h from the pipe's current end, appends its
/// flow segment and moves the end forward; it returns false when the
/// integrator rejects the step.
template <class Advance>
Flowpipe run_substeps(Flowpipe pipe, double period, int steps, Advance advance) {
  if (steps < 1 || period <= 0.0) {
    throw std::invalid_argument("simulate: need steps >= 1 and period > 0");
  }
  pipe.segments.reserve(static_cast<std::size_t>(steps));
  // Sub-step boundaries are period*i/steps; consecutive differences are used
  // as step sizes so the durations telescope to `period` up to sub-ulp
  // slack (absorbed into the plant model; see DESIGN.md).
  double t_prev = 0.0;
  for (int i = 1; i <= steps; ++i) {
    const double t_next = i == steps ? period : period * static_cast<double>(i) / steps;
    const bool stepped = advance(pipe, t_next - t_prev);
    NNCS_COUNT("ode.substeps", 1);
    if (!stepped) {
      // Step-size rejection: no enclosure at this h, the flowpipe aborts.
      NNCS_COUNT("ode.step_rejections", 1);
      pipe.ok = false;
      return pipe;
    }
    t_prev = t_next;
  }
  return pipe;
}

}  // namespace

Flowpipe simulate(const Dynamics& f, const ValidatedIntegrator& integrator, const Box& s0,
                  const Vec& u, double period, int steps) {
  Flowpipe start;
  start.end = s0;
  return run_substeps(std::move(start), period, steps, [&](Flowpipe& pipe, double h) {
    auto step = integrator.step(f, pipe.end, u, h);
    if (!step) {
      return false;
    }
    pipe.segments.push_back(std::move(step->flow));
    pipe.end = std::move(step->end);
    return true;
  });
}

Flowpipe simulate(const Dynamics& f, const ValidatedIntegrator& integrator, const AffineSet& s0,
                  const Vec& u, double period, int steps) {
  AffineSet current = s0;
  Flowpipe start;
  start.end = s0.concretize();
  Flowpipe pipe =
      run_substeps(std::move(start), period, steps, [&](Flowpipe& out, double h) {
        auto step = integrator.step_affine(f, current, u, h);
        if (!step) {
          return false;
        }
        out.segments.push_back(std::move(step->flow));
        out.end = std::move(step->end_box);
        current = std::move(step->end);
        return true;
      });
  pipe.affine_end = std::make_shared<const AffineSet>(std::move(current));
  return pipe;
}

}  // namespace nncs
