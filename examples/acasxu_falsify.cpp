/// ACAS Xu falsification + runtime-monitor demo: search for colliding
/// trajectories with the trajectory-robustness falsifier, then show how a
/// verification report becomes a runtime safety monitor (§7.2: "switch to a
/// more robust controller if the system encounters an initial state for
/// which it was not proved safe").

#include <cstdio>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/engine.hpp"
#include "core/falsifier.hpp"
#include "core/monitor.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

int main() {
  using namespace nncs;
  namespace ax = nncs::acasxu;

  std::printf("ACAS Xu falsification + runtime monitor demo\n\n");
  const ax::TrainingConfig training;
  const auto networks = ax::ensure_networks("acasxu_nets_cache", training);

  const auto plant = ax::make_dynamics();
  const auto controller = ax::make_controller(networks);
  const ClosedLoop system{plant.get(), controller.get(), 1.0};

  ax::ScenarioConfig scenario;
  const auto error = ax::make_error_region(scenario);
  const auto target = ax::make_target_region(scenario);

  // --- Falsification: can random + local search find a collision? ---
  FalsifierConfig fc;
  fc.param_dim = 2;
  fc.random_samples = 400;
  fc.local_iterations = 400;
  fc.max_steps = 20;
  fc.substeps = 20;
  const Falsifier falsifier(fc);
  const auto fr = falsifier.run(system, ax::make_sampler(scenario), error, target,
                                ax::make_robustness(scenario));
  std::printf("falsifier: %d simulations, min separation margin %.1f ft => %s\n",
              fr.simulations, fr.best_robustness,
              fr.falsified ? "COLLISION FOUND" : "no collision found");
  std::printf("  most critical encounter: x0=%.0f ft, y0=%.0f ft, psi0=%.3f rad\n",
              fr.initial_state[ax::kIdxX], fr.initial_state[ax::kIdxY],
              fr.initial_state[ax::kIdxPsi]);

  // --- Verify a coarse partition, build a monitor from the report. ---
  scenario.num_arcs = 16;
  scenario.num_headings = 4;
  const auto cells = ax::make_initial_cells(scenario);
  const TaylorIntegrator integrator;
  VerifyConfig vc;
  vc.reach.control_steps = 20;
  vc.reach.integration_steps = 10;
  vc.reach.gamma = 5;
  vc.reach.integrator = &integrator;
  vc.max_refinement_depth = 1;
  vc.split_dims = ax::split_dimensions();
  vc.threads = env_threads();
  const VerificationEngine engine(system, error, target);
  const auto report = engine.run(ax::to_symbolic_set(cells), EngineConfig{vc}).report;
  std::printf("\nverification: coverage %.1f %% (%zu proved cells)\n", report.coverage_percent,
              report.proved_leaves);

  const SafetyMonitor monitor = SafetyMonitor::from_report(report);
  std::printf("monitor holds %zu proved cells; querying random detections:\n",
              monitor.num_cells());
  Rng rng(99);
  int proved = 0, unknown = 0;
  for (int i = 0; i < 1000; ++i) {
    const Vec params{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const auto [s0, u0] = ax::make_sampler(scenario)(params);
    if (monitor.query(s0, u0) == SafetyMonitor::Answer::kProvedSafe) {
      ++proved;
    } else {
      ++unknown;
    }
  }
  std::printf("  %d/1000 detections provably safe; %d would trigger the fallback controller\n",
              proved, unknown);
  return 0;
}
