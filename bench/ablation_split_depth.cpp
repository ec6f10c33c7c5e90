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

  const scenario::Scenario& scen = acas_scenario();
  const scenario::System system = scen.make_system({});
  const auto cells = scenario::to_symbolic_set(scen.make_cells({16, 4}));
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const TaylorIntegrator integrator;
  const VerificationEngine engine(system.loop, *error, *target);

  Table table("ablation_split_depth",
              {"max_depth", "coverage_pct", "leaves", "proved_leaves", "time_s"});
  for (const int depth : {0, 1, 2}) {
    VerifyConfig config = scen.default_config();
    config.reach.integrator = &integrator;
    config.max_refinement_depth = depth;
    config.threads = env_threads();
    Stopwatch watch;
    const auto report = engine.run(cells, EngineConfig{config}).report;
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
