// Ablation A4 (§6.6): the abstract domain, swept over the driver's one
// `--domain` axis. `interval` and `symbolic` run the box loop with that
// network transformer F#; `zonotope` runs the relational loop, whose every
// controller query takes the zonotope (affine arithmetic [15]) transformer.
// Per domain: the tightness of one abstract controller step per cell
// (reachable-command count, output widths; the zonotope row steps the
// cell's `AffineSet::from_box` lift with `step_abstract_relational`), the
// end-to-end proof power of the unrefined cells (one engine thread), and
// one "nncs-bench v2" artifact so the perf pipeline can diff the
// end-to-end effect across commits.
//
// Flags: --artifact-dir DIR (output directory for the BENCH_*.json files).

#include <cstdio>
#include <iostream>
#include <string>

#include "acas_bench_common.hpp"
#include "core/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nncs;
  using namespace nncs::bench;

  const auto artifact_dir = artifact_dir_from_args(argc, argv);

  const scenario::Scenario& scen = acas_scenario();
  const BenchScale scale{16, 4, 0};
  const auto cells = acas_cells(scale);
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});

  Table table("ablation_nn_domain",
              {"domain", "avg_commands_per_step", "avg_output_width", "proved_cells",
               "time_s"});
  for (const std::string name : {"interval", "symbolic", "zonotope"}) {
    const DomainChoice domain = *parse_domain(name);
    scenario::SystemConfig system_config;
    system_config.domain = domain.nn;
    const scenario::System system = scen.make_system(system_config);
    // Tightness of one abstract controller execution per cell.
    double total_commands = 0.0;
    double total_width = 0.0;
    for (const auto& cell : cells) {
      const Box& box = cell.state.box();
      const auto step = domain.loop == LoopDomain::kZonotope
                            ? system.controller->step_abstract_relational(
                                  AffineSet::from_box(box), cell.state.command)
                            : system.controller->step_abstract(box, cell.state.command);
      total_commands += static_cast<double>(step.commands.size());
      for (std::size_t j = 0; j < step.network_output.dim(); ++j) {
        total_width += step.network_output[j].width();
      }
    }
    // End-to-end proof power at the paper's knobs (τ = 20 s, M = 10, Γ = 5).
    EngineConfig config;
    config.verify = scen.default_config();
    config.verify.reach.integrator = &integrator;
    config.verify.reach.domain = domain.loop;
    config.verify.max_refinement_depth = scale.max_depth;
    config.verify.threads = 1;
    const VerifyReport report = VerificationEngine(system.loop, *error, *target)
                                    .run(scenario::to_symbolic_set(cells), config)
                                    .report;

    const auto steps = static_cast<double>(cells.size());
    table.add_row({name, Table::num(total_commands / steps, 4),
                   Table::num(total_width / (steps * 5), 4),
                   std::to_string(report.proved_leaves), Table::num(report.seconds, 4)});
    write_bench_report("ablation_nn_domain_" + name, scale, report, artifact_dir);
  }
  table.print_all(std::cout);
  std::printf(
      "expected shape: the relational transformers (symbolic, zonotope) return fewer\n"
      "reachable commands than plain intervals, which is what makes the closed-loop\n"
      "analysis converge (the paper builds F# on ReluVal for this reason and cites\n"
      "affine arithmetic as the alternative); the zonotope loop proves the most cells.\n");
  return 0;
}
