#pragma once

/// Forwarding decorators around the three virtual interfaces the closed loop
/// receives by pointer or reference. Each overrides every virtual function
/// of its interface (the base defaults box sets or loop scalar steps, so a
/// missed override would measure a different program) and times every
/// call with NNCS_SPAN, so the traced run attributes time to the ODE,
/// controller and specification layers from outside the program. With
/// telemetry off a span costs one relaxed load and a branch.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/specs.hpp"
#include "obs/span.hpp"
#include "ode/validated_integrator.hpp"

namespace perfbench {

class TimedIntegrator final : public nncs::ValidatedIntegrator {
 public:
  explicit TimedIntegrator(const nncs::ValidatedIntegrator& inner) : inner_(&inner) {}

  [[nodiscard]] std::optional<nncs::ValidatedStep> step(const nncs::Dynamics& f,
                                                        const nncs::Box& s0, const nncs::Vec& u,
                                                        double h) const override {
    NNCS_SPAN("bench.ode.step");
    auto result = inner_->step(f, s0, u, h);
    if (!result) {
      NNCS_COUNT("bench.ode.step_failed", 1);
    }
    return result;
  }

  [[nodiscard]] std::optional<nncs::AffineValidatedStep> step_affine(const nncs::Dynamics& f,
                                                                    const nncs::AffineSet& s0,
                                                                    const nncs::Vec& u,
                                                                    double h) const override {
    NNCS_SPAN("bench.ode.step_affine");
    auto result = inner_->step_affine(f, s0, u, h);
    if (!result) {
      NNCS_COUNT("bench.ode.step_failed", 1);
    }
    return result;
  }

 private:
  const nncs::ValidatedIntegrator* inner_;
};

class TimedController final : public nncs::Controller {
 public:
  explicit TimedController(const nncs::Controller& inner) : inner_(&inner) {}

  [[nodiscard]] const nncs::CommandSet& commands() const override { return inner_->commands(); }
  [[nodiscard]] std::size_t state_dim() const override { return inner_->state_dim(); }

  [[nodiscard]] std::size_t step(const nncs::Vec& state,
                                 std::size_t previous_command) const override {
    NNCS_SPAN("bench.controller.step");
    return inner_->step(state, previous_command);
  }

  [[nodiscard]] nncs::AbstractControlStep step_abstract(
      const nncs::Box& state, std::size_t previous_command) const override {
    NNCS_SPAN("bench.controller.step_abstract");
    auto result = inner_->step_abstract(state, previous_command);
    count_queries(1, result.commands.size());
    return result;
  }

  [[nodiscard]] nncs::AbstractControlStep step_abstract_relational(
      const nncs::AffineSet& state, std::size_t previous_command) const override {
    NNCS_SPAN("bench.controller.step_abstract_relational");
    auto result = inner_->step_abstract_relational(state, previous_command);
    count_queries(1, result.commands.size());
    return result;
  }

  [[nodiscard]] std::vector<nncs::AbstractControlStep> step_abstract_batch(
      const std::vector<nncs::AbstractState>& states,
      const std::vector<std::size_t>& previous_commands) const override {
    NNCS_SPAN("bench.controller.step_abstract_batch");
    auto results = inner_->step_abstract_batch(states, previous_commands);
    std::size_t commands = 0;
    for (const auto& r : results) {
      commands += r.commands.size();
    }
    count_queries(results.size(), commands);
    return results;
  }

 private:
  static void count_queries(std::size_t queries, std::size_t commands) {
    NNCS_COUNT("bench.controller.queries", queries);
    NNCS_COUNT("bench.controller.commands", commands);
  }

  const nncs::Controller* inner_;
};

class TimedRegion final : public nncs::StateRegion {
 public:
  explicit TimedRegion(const nncs::StateRegion& inner) : inner_(&inner) {}

  [[nodiscard]] bool contains_point(const nncs::Vec& state,
                                    std::size_t command) const override {
    NNCS_SPAN("bench.specs.contains_point");
    return inner_->contains_point(state, command);
  }

  [[nodiscard]] bool certainly_contains(const nncs::Box& state,
                                        std::size_t command) const override {
    NNCS_SPAN("bench.specs.certainly_contains");
    return inner_->certainly_contains(state, command);
  }

  [[nodiscard]] bool possibly_intersects(const nncs::Box& state,
                                         std::size_t command) const override {
    NNCS_SPAN("bench.specs.possibly_intersects");
    return inner_->possibly_intersects(state, command);
  }

 private:
  const nncs::StateRegion* inner_;
};

}  // namespace perfbench
