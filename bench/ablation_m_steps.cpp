// Ablation A1 (§6.4, "Improving precision"): effect of the number of
// validated integration steps M on end-to-end verifiability. Runs the full
// reachability analysis of a fixed set of representative cells for several
// M and reports, per M: proved cells, the error/horizon outcomes and the
// analysis time — showing the accuracy/cost trade-off behind the paper's
// choice M = 10.

#include <cstdio>
#include <iostream>

#include "acas_bench_common.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  using namespace nncs;
  using namespace nncs::bench;

  const scenario::Scenario& scen = acas_scenario();
  const scenario::System system = scen.make_system({});
  const auto cells = scen.make_cells({16, 4});
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const TaylorIntegrator integrator;

  Table table("ablation_m_steps",
              {"M", "proved", "error_reachable", "horizon_exhausted", "time_s"});
  for (const int m : {1, 2, 5, 10, 20}) {
    ReachConfig config = scen.default_config().reach;
    config.integration_steps = m;
    config.integrator = &integrator;
    int proved = 0;
    int error_hit = 0;
    int horizon = 0;
    Stopwatch watch;
    for (const auto& cell : cells) {
      const auto result =
          reach_analyze(system.loop, SymbolicSet{cell.state}, *error, *target, config);
      switch (result.outcome) {
        case ReachOutcome::kProvedSafe:
          ++proved;
          break;
        case ReachOutcome::kErrorReachable:
          ++error_hit;
          break;
        default:
          ++horizon;
          break;
      }
    }
    table.add_row({std::to_string(m), std::to_string(proved), std::to_string(error_hit),
                   std::to_string(horizon), Table::num(watch.seconds(), 4)});
  }
  table.print_all(std::cout);
  std::printf(
      "expected shape: M = 1 smears each period over a huge box (few or no proofs);\n"
      "precision and proof counts rise with M while time grows roughly linearly.\n");
  return 0;
}
