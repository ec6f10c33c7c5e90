// Ablation A4 (§6.6): the abstract domain used for the network transformer
// F#. ReluVal-style symbolic bounds vs plain intervals: tightness of the
// abstract controller step (reachable-command count, output widths) and
// end-to-end proof power. A second sweep holds F# fixed (symbolic) and
// flips the orthogonal knob this domain feeds into — the *loop* state
// representation (`--domain box|zonotope` on the driver) — and emits one
// "nncs-bench v2" artifact per loop domain so the perf pipeline can diff
// the end-to-end effect across commits.
//
// Flags: --artifact-dir DIR (output directory for the BENCH_*.json files).

#include <cstdio>
#include <iostream>

#include "acas_bench_common.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nncs;
  using namespace nncs::bench;
  namespace ax = nncs::acasxu;

  const auto artifact_dir = artifact_dir_from_args(argc, argv);

  ax::ScenarioConfig scenario;
  scenario.num_arcs = 16;
  scenario.num_headings = 4;
  const auto cells = ax::make_initial_cells(scenario);
  const auto error = ax::make_error_region(scenario);
  const auto target = ax::make_target_region(scenario);
  const TaylorIntegrator integrator;

  Table table("ablation_nn_domain",
              {"domain", "avg_commands_per_step", "avg_output_width", "proved_cells",
               "time_s"});
  for (const NnDomain domain :
       {NnDomain::kInterval, NnDomain::kAffine, NnDomain::kSymbolic}) {
    AcasSystem system = make_acas_system(domain);
    // Tightness of one abstract controller execution per cell.
    double total_commands = 0.0;
    double total_width = 0.0;
    std::size_t steps = 0;
    for (const auto& cell : cells) {
      const auto step = system.controller->step_abstract(cell.state.box(), cell.state.command);
      total_commands += static_cast<double>(step.commands.size());
      for (std::size_t j = 0; j < step.network_output.dim(); ++j) {
        total_width += step.network_output[j].width();
      }
      ++steps;
    }
    // End-to-end proof power.
    ReachConfig config;
    config.control_steps = 20;
    config.integration_steps = 10;
    config.gamma = 5;
    config.integrator = &integrator;
    int proved = 0;
    Stopwatch watch;
    for (const auto& cell : cells) {
      const auto result =
          reach_analyze(system.loop, SymbolicSet{cell.state}, error, target, config);
      proved += result.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
    }
    table.add_row({domain == NnDomain::kInterval
                       ? "interval"
                       : (domain == NnDomain::kAffine ? "zonotope" : "symbolic"),
                   Table::num(total_commands / static_cast<double>(steps), 4),
                   Table::num(total_width / static_cast<double>(steps * 5), 4),
                   std::to_string(proved), Table::num(watch.seconds(), 4)});
  }
  table.print_all(std::cout);
  std::printf(
      "expected shape: the relational domains (symbolic, zonotope) return fewer\n"
      "reachable commands and far narrower score enclosures than plain intervals,\n"
      "which is what makes the closed-loop analysis converge (the paper builds F#\n"
      "on ReluVal for this reason and cites affine arithmetic as the alternative).\n"
      "On these networks the zonotope domain wins outright: its argmin test gets\n"
      "complete pairwise cancellation of shared noise symbols, where the\n"
      "lower/upper-bound symbolic domain loses the relaxation correlation.\n\n");

  // The orthogonal knob: F# fixed at its best (symbolic), the loop state
  // representation flipped between boxes and affine sets. This is the same
  // sweep the driver's `--domain` flag exposes end to end.
  Table loop_table("ablation_loop_domain", {"loop_domain", "proved_cells", "time_s"});
  for (const LoopDomain loop_domain : {LoopDomain::kBox, LoopDomain::kZonotope}) {
    AcasSystem system = make_acas_system(NnDomain::kSymbolic);
    ReachConfig config;
    config.control_steps = 20;
    config.integration_steps = 10;
    config.gamma = 5;
    config.integrator = &integrator;
    config.domain = loop_domain;

    // Depth 0: every cell is a terminal leaf of its own root.
    VerifyReport report;
    report.root_cells = cells.size();
    report.leaves.reserve(cells.size());
    Stopwatch watch;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto result =
          reach_analyze(system.loop, SymbolicSet{cells[i].state}, error, target, config);
      CellOutcome leaf;
      leaf.initial = cells[i].state;
      leaf.root_index = i;
      leaf.outcome = result.outcome;
      leaf.stats = result.stats;
      report.leaves.push_back(std::move(leaf));
      if (result.outcome == ReachOutcome::kProvedSafe) {
        ++report.proved_leaves;
      } else {
        ++report.failed_leaves;
      }
    }
    report.seconds = watch.seconds();
    report.proved_by_depth = {report.proved_leaves};
    report.coverage_percent = 100.0 * static_cast<double>(report.proved_leaves) /
                              static_cast<double>(cells.size());

    const char* name = loop_domain == LoopDomain::kZonotope ? "zonotope" : "box";
    loop_table.add_row(
        {name, std::to_string(report.proved_leaves), Table::num(report.seconds, 4)});
    write_bench_report(std::string("ablation_loop_domain_") + name,
                       BenchScale{scenario.num_arcs, scenario.num_headings, 0}, report,
                       artifact_dir);
  }
  loop_table.print_all(std::cout);
  return 0;
}
