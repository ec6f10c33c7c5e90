/// ACAS Xu system-level safety verification (the paper's §7 experiment at
/// example scale): partition the initial encounter geometries, run the
/// reachability analysis per cell with split refinement, and print the
/// safe / not-proved map plus the coverage metric. The workload comes from
/// the registered "acasxu" scenario (src/scenario/acasxu_scenario.cpp); the
/// full-featured driver for the same runs is `nncs_verify --scenario acasxu`.
///
/// Usage: acasxu_verify [num_arcs] [num_headings] [max_depth]
/// The 5 advisory networks are trained on first use and cached in
/// ./acasxu_nets_cache/.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/verifier.hpp"
#include "scenario/scenario.hpp"
#include "util/env.hpp"

int main(int argc, char** argv) {
  using namespace nncs;

  scenario::Partition partition;
  partition.axis0 = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 24;
  partition.axis1 = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 6;
  const int max_depth = argc > 3 ? std::atoi(argv[3]) : 1;

  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  partition = scenario::resolve(scen, partition);
  std::printf("ACAS Xu verification: %zu arcs x %zu headings, refinement depth %d\n",
              partition.axis0, partition.axis1, max_depth);

  std::printf("loading / training the 5 advisory networks...\n");
  const scenario::System system = scen.make_system(scenario::SystemConfig{});
  const auto cells = scen.make_cells(partition);
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  VerifyConfig config = scen.default_config();  // paper knobs: τ = 20 s, M = 10, Γ = P = 5
  config.reach.integrator = &integrator;
  config.max_refinement_depth = max_depth;
  config.threads = env_threads();

  const Verifier verifier(system.loop, *error, *target);
  const VerifyReport report = verifier.verify(scenario::to_symbolic_set(cells), config);

  // ASCII map: rows = heading cells, columns = arcs; '#' proved at depth 0,
  // '+' proved via refinement (partially green), 'x' not proved.
  std::map<std::pair<std::size_t, std::size_t>, char> map;
  for (const auto& leaf : report.leaves) {
    // Recover the (arc, heading) indices from the root index (cells are
    // generated arc-major).
    const std::size_t root = leaf.root_index;
    const auto key = std::make_pair(root / partition.axis1, root % partition.axis1);
    char& c = map[key];
    const bool proved = leaf.outcome == ReachOutcome::kProvedSafe;
    if (c == 0) {
      c = proved ? (leaf.depth == 0 ? '#' : '+') : 'x';
    } else if (!proved) {
      c = 'x';
    } else if (c == '#' && leaf.depth > 0) {
      c = '+';
    }
  }
  std::printf("\nmap (columns: bearing from -pi to pi; rows: heading within cone)\n");
  for (std::size_t h = 0; h < partition.axis1; ++h) {
    for (std::size_t a = 0; a < partition.axis0; ++a) {
      std::printf("%c", map.count({a, h}) ? map[{a, h}] : '?');
    }
    std::printf("\n");
  }

  std::printf("\nroot cells:    %zu\n", report.root_cells);
  std::printf("proved leaves: %zu  (depth0=%zu", report.proved_leaves,
              report.proved_by_depth.empty() ? 0 : report.proved_by_depth[0]);
  for (std::size_t d = 1; d < report.proved_by_depth.size(); ++d) {
    std::printf(", depth%zu=%zu", d, report.proved_by_depth[d]);
  }
  std::printf(")\n");
  std::printf("failed leaves: %zu\n", report.failed_leaves);
  std::printf("coverage:      %.1f %%   (paper reports 90.3%% at full scale)\n",
              report.coverage_percent);
  std::printf("wall time:     %.1f s on %zu threads\n", report.seconds, config.threads);
  return 0;
}
