// Ablation A6 (§2): soundness comparison with the discrete-instant baseline
// of Julian & Kochenderfer [7], which evaluates the reachable states only
// at the sampling instants t = jT. Two scenarios:
//
//  1. A synthetic fast-crossing system (one full oscillation per control
//     period): the state dips into E strictly between samples. The sound
//     engine flags it; the discrete-instant check reports "no error".
//  2. An ACAS Xu fast-crossing geometry where the intruder traverses the
//     collision cylinder within a single period.

#include <cstdio>
#include <iostream>
#include <numbers>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

namespace {

using namespace nncs;

struct OscField {
  double omega;
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = Interval{omega} * s[1] + 0.0 * u[0];
    out[1] = -(Interval{omega} * s[0]) + 0.0 * u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = omega * s[1] + 0.0 * u[0];
    out[1] = -omega * s[0];
  }
};

/// Trivial single-command controller (y = (0, 1): always command 0).
std::unique_ptr<NeuralController> trivial_controller(std::size_t state_dim) {
  Network net = make_zero_network({state_dim, 2});
  net.layer(0).biases[1] = 1.0;
  std::vector<Network> nets;
  nets.push_back(std::move(net));
  return std::make_unique<NeuralController>(
      CommandSet({Vec{0.0}, Vec{0.0}}), std::move(nets), std::vector<std::size_t>{0, 0},
      std::make_unique<IdentityPre>(state_dim));
}

}  // namespace

int main() {
  using namespace nncs::bench;
  namespace ax = nncs::acasxu;

  Table table("baseline_discrete_instant",
              {"scenario", "engine", "verdict", "sound"});

  // --- Scenario 1: full revolution per period. -----------------------------
  {
    const double omega = 2.0 * std::numbers::pi;
    const auto plant = make_dynamics(2, 1, OscField{omega});
    const auto ctrl = trivial_controller(2);
    const ClosedLoop loop{plant.get(), ctrl.get(), 1.0};
    const BoxRegion error({{0, Interval{-1e9, -0.5}}});
    const EmptyRegion target;
    const TaylorIntegrator integrator(TaylorIntegrator::Config{8, {}});
    ReachConfig config;
    config.control_steps = 2;
    config.integration_steps = 32;
    config.gamma = 4;
    config.integrator = &integrator;
    const SymbolicSet initial{{Box{Interval{1.0, 1.0}, Interval{0.0, 0.0}}, 0}};
    for (const bool sound : {true, false}) {
      config.check_intermediate = sound;
      const auto result = reach_analyze(loop, initial, error, target, config);
      const bool flags_error = result.outcome == ReachOutcome::kErrorReachable;
      table.add_row({"oscillator_crossing", sound ? "sound" : "discrete-instant[7]",
                     to_string(result.outcome),
                     // The state truly enters E, so only a flagged error is
                     // the correct (sound) answer here.
                     flags_error ? "yes" : "MISSED-VIOLATION"});
    }
  }

  // --- Scenario 2: ACAS Xu head-on pass within one period. -----------------
  {
    const scenario::Scenario& scen = acas_scenario();
    const scenario::System system = scen.make_system({});
    const auto error = scen.make_error_region();
    const EmptyRegion target;  // keep the horizon fixed
    // Head-on at 700 ft: closing speed 1300 ft/s crosses the entire 1000 ft
    // collision cylinder between two samples (enters and exits within T=1).
    const Box cell{Interval::centered(0.0, 5.0), Interval::centered(700.0, 5.0),
                   Interval::centered(std::numbers::pi, 0.002), Interval{ax::kVown},
                   Interval{ax::kVint}};
    const TaylorIntegrator integrator;
    ReachConfig config = scen.default_config().reach;
    config.control_steps = 2;
    config.integration_steps = 20;
    config.integrator = &integrator;
    for (const bool sound : {true, false}) {
      config.check_intermediate = sound;
      const auto result =
          reach_analyze(system.loop, SymbolicSet{{cell, ax::kCoc}}, *error, target, config);
      const bool flags_error = result.outcome == ReachOutcome::kErrorReachable;
      table.add_row({"acasxu_fast_crossing", sound ? "sound" : "discrete-instant[7]",
                     to_string(result.outcome), flags_error ? "yes" : "MISSED-VIOLATION"});
    }
  }

  table.print_all(std::cout);
  std::printf(
      "expected: the sound engine reports error-reachable in both scenarios; the\n"
      "discrete-instant baseline misses both intra-period violations — the paper's\n"
      "§2 criticism of [7] made concrete.\n");
  return 0;
}
