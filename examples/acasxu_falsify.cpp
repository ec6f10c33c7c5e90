/// ACAS Xu falsification + runtime-monitor demo: search for colliding
/// trajectories with the trajectory-robustness falsifier, then show how a
/// verification report becomes a runtime safety monitor (§7.2: "switch to a
/// more robust controller if the system encounters an initial state for
/// which it was not proved safe").

#include <cstdio>

#include "acasxu/dynamics.hpp"
#include "acasxu/scenario.hpp"
#include "core/engine.hpp"
#include "core/falsifier.hpp"
#include "core/monitor.hpp"
#include "scenario/scenario.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

int main() {
  using namespace nncs;
  namespace ax = nncs::acasxu;

  std::printf("ACAS Xu falsification + runtime monitor demo\n\n");
  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  const scenario::System assembled = scen.make_system({});
  const ClosedLoop& system = assembled.loop;
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  // --- Falsification: can random + local search find a collision? ---
  FalsifierConfig fc;
  fc.param_dim = 2;
  fc.random_samples = 400;
  fc.local_iterations = 400;
  fc.max_steps = 20;
  fc.substeps = 20;
  const Falsifier falsifier(fc);
  const auto fr = falsifier.run(system, ax::make_sampler(), *error, *target,
                                ax::make_robustness());
  std::printf("falsifier: %d simulations, min separation margin %.1f ft => %s\n",
              fr.simulations, fr.best_robustness,
              fr.falsified ? "COLLISION FOUND" : "no collision found");
  std::printf("  most critical encounter: x0=%.0f ft, y0=%.0f ft, psi0=%.3f rad\n",
              fr.initial_state[ax::kIdxX], fr.initial_state[ax::kIdxY],
              fr.initial_state[ax::kIdxPsi]);

  // --- Verify a coarse partition, build a monitor from the report. ---
  const auto cells = scen.make_cells({16, 4});
  const TaylorIntegrator integrator;
  VerifyConfig vc = scen.default_config();
  vc.reach.integrator = &integrator;
  vc.threads = env_threads();
  const VerificationEngine engine(system, *error, *target);
  const auto report = engine.run(scenario::to_symbolic_set(cells), EngineConfig{vc}).report;
  std::printf("\nverification: coverage %.1f %% (%zu proved cells)\n", report.coverage_percent,
              report.proved_leaves);

  const SafetyMonitor monitor = SafetyMonitor::from_report(report);
  std::printf("monitor holds %zu proved cells; querying random detections:\n",
              monitor.num_cells());
  Rng rng(99);
  int proved = 0, unknown = 0;
  for (int i = 0; i < 1000; ++i) {
    const Vec params{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const auto [s0, u0] = ax::make_sampler()(params);
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
