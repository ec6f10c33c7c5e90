// Ablation A3 (§7.1, "Split refinement"): coverage as a function of the
// maximum bisection depth. The paper's coverage formula weighs a depth-d
// proof by 1/8^d; deeper refinement recovers coverage from cells that are
// too coarse at depth 0.

#include <cstdio>
#include <iostream>

#include "acas_bench_common.hpp"
#include "core/engine.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace nncs;
  using namespace nncs::bench;
  namespace ax = nncs::acasxu;

  AcasSystem system = make_acas_system();
  ax::ScenarioConfig scenario;
  scenario.num_arcs = 16;
  scenario.num_headings = 4;
  const auto cells = ax::make_initial_cells(scenario);
  const auto error = ax::make_error_region(scenario);
  const auto target = ax::make_target_region(scenario);
  const TaylorIntegrator integrator;
  const VerificationEngine engine(system.loop, error, target);

  Table table("ablation_split_depth",
              {"max_depth", "coverage_pct", "leaves", "proved_leaves", "time_s"});
  for (const int depth : {0, 1, 2}) {
    VerifyConfig config;
    config.reach.control_steps = 20;
    config.reach.integration_steps = 10;
    config.reach.gamma = 5;
    config.reach.integrator = &integrator;
    config.max_refinement_depth = depth;
    config.split_dims = ax::split_dimensions();
    config.threads = env_threads();
    Stopwatch watch;
    const auto report = engine.run(ax::to_symbolic_set(cells), EngineConfig{config}).report;
    table.add_row({std::to_string(depth), Table::num(report.coverage_percent, 4),
                   std::to_string(report.leaves.size()),
                   std::to_string(report.proved_leaves), Table::num(watch.seconds(), 4)});
  }
  table.print_all(std::cout);
  std::printf(
      "expected shape: coverage grows with depth (each level adds n_d/8^d), at\n"
      "roughly 8x analysis cost per extra level on the unresolved cells.\n");
  return 0;
}
