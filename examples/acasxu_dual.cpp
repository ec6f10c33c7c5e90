/// Dual-equipage ACAS Xu — the multi-agent extension the paper sketches as
/// future work (§8): BOTH aircraft run the neural collision-avoidance
/// controller, executing in the same control interval. The combined
/// controller is the cross product of two `NeuralController`s (25 command
/// pairs); the intruder's controller sees the encounter through the frame
/// mirror `acasxu::mirror_state`.
///
/// The demo (a) compares concrete closed-loop behaviour against the
/// single-equipage system — note that *uncoordinated* dual equipage can be
/// WORSE than single equipage, because each network was trained assuming a
/// straight-flying intruder and the two maneuvers can conflict (this is why
/// real TCAS/ACAS coordinate resolution advisories; reproducing that
/// pathology is part of the point) — and (b) runs the reachability analysis
/// on a slice of initial cells to show the same machinery (Algorithms 1-3)
/// verifies multi-agent systems unchanged.

#include <cstdio>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/geometry.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/engine.hpp"
#include "core/product_controller.hpp"
#include "core/simulate.hpp"
#include "scenario/scenario.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

int main() {
  using namespace nncs;
  namespace ax = nncs::acasxu;

  std::printf("ACAS Xu dual equipage (both aircraft maneuver)\n\n");
  const ax::TrainingConfig training;
  const auto networks = ax::ensure_networks("acasxu_nets_cache", training);

  // One NeuralController per aircraft (same trained networks), so the
  // closed loop is assembled here rather than by the registered scenario,
  // which supplies the cells, the regions and the analysis knobs.
  const auto own_ctrl = ax::make_controller(networks);
  const auto int_ctrl = ax::make_controller(networks);
  const StateView mirror{[](const Vec& s) { return ax::mirror_state(s); },
                         [](const Box& b) { return ax::mirror_state(b); }};
  const ProductController dual(*own_ctrl, *int_ctrl, identity_view(), mirror,
                               ax::kStateDim);

  const auto dual_plant = ax::make_dual_dynamics();
  const ClosedLoop dual_loop{dual_plant.get(), &dual, 1.0};

  const auto single_plant = ax::make_dynamics();
  const ClosedLoop single_loop{single_plant.get(), own_ctrl.get(), 1.0};

  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const auto robustness = ax::make_robustness();

  // (a) Concrete comparison over random crossing encounters.
  Rng rng(2021);
  double single_min = 1e18;
  double dual_min = 1e18;
  int dual_collisions = 0;
  int single_collisions = 0;
  const int kTrials = 300;
  for (int i = 0; i < kTrials; ++i) {
    const double bearing = rng.uniform(-2.0, 2.0);
    const double heading_frac = rng.uniform(0.2, 0.8);
    const Vec s0 = ax::initial_state(bearing, heading_frac);
    const auto single =
        simulate_closed_loop(single_loop, s0, ax::kCoc, *error, *target, 20, 10, robustness);
    // Dual initial command: both COC (index 0 of the product).
    const auto both =
        simulate_closed_loop(dual_loop, s0, 0, *error, *target, 20, 10, robustness);
    single_min = std::min(single_min, single.min_robustness);
    dual_min = std::min(dual_min, both.min_robustness);
    single_collisions += single.reached_error ? 1 : 0;
    dual_collisions += both.reached_error ? 1 : 0;
  }
  std::printf("concrete sweep over %d crossing encounters:\n", kTrials);
  std::printf("  single equipage: min separation margin %8.1f ft, collisions %d\n",
              single_min, single_collisions);
  std::printf("  dual equipage:   min separation margin %8.1f ft, collisions %d\n",
              dual_min, dual_collisions);
  std::printf(
      "  (uncoordinated dual equipage is typically NOT safer: each network was\n"
      "   trained against a straight-flying intruder, so simultaneous maneuvers\n"
      "   can conflict — the reason real ACAS coordinates advisories.)\n");

  // (b) Reachability on a small slice of initial cells (behind arcs — the
  // provable region at this coarse scale).
  auto cells = scen.make_cells({16, 4});
  cells.resize(8);  // first bearing arcs only, to keep the demo quick
  const TaylorIntegrator integrator;
  VerifyConfig config = scen.default_config();
  config.reach.gamma = 25;  // Remark 3: gamma >= |U| = 25 command pairs
  config.reach.integrator = &integrator;
  config.threads = env_threads();
  const VerificationEngine engine(dual_loop, *error, *target);
  const auto report = engine.run(scenario::to_symbolic_set(cells), EngineConfig{config}).report;
  std::printf("\nreachability on %zu dual-equipage cells: %zu proved, %zu not proved "
              "(coverage %.1f %%, %.1f s)\n",
              report.root_cells, report.proved_leaves, report.failed_leaves,
              report.coverage_percent, report.seconds);
  std::printf("\nThe same Algorithms 1-3 run unchanged: only the plant (psi' = u_int - "
              "u_own)\nand the controller (cross product + frame mirror) were swapped.\n");
  return 0;
}
