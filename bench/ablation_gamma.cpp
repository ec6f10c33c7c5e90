// Ablation A2 (§6.4, "Improving time complexity"): the symbolic-set size
// threshold Γ trades accuracy (large Γ) against analysis cost (small Γ);
// Remark 3 requires Γ >= P = 5. Reports proved cells, total joins and time
// per Γ on a fixed slice of initial cells.

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

  Table table("ablation_gamma",
              {"gamma", "proved", "joins", "max_states", "time_s"});
  for (const std::size_t gamma : {5u, 8u, 16u, 32u}) {
    ReachConfig config = scen.default_config().reach;
    config.gamma = gamma;
    config.integrator = &integrator;
    int proved = 0;
    std::size_t joins = 0;
    std::size_t max_states = 0;
    Stopwatch watch;
    for (const auto& cell : cells) {
      const auto result =
          reach_analyze(system.loop, SymbolicSet{cell.state}, *error, *target, config);
      proved += result.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
      joins += result.stats.joins;
      max_states = std::max(max_states, result.stats.max_states);
    }
    table.add_row({std::to_string(gamma), std::to_string(proved), std::to_string(joins),
                   std::to_string(max_states), Table::num(watch.seconds(), 4)});
  }
  table.print_all(std::cout);
  std::printf(
      "expected shape: joins decrease as gamma grows (fewer forced merges, tighter\n"
      "sets) at higher per-step cost; gamma = P = 5 is the paper's operating point.\n");
  return 0;
}
