#include "core/run_report.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace nncs {

obs::BenchArtifact make_run_artifact(std::string bench, std::map<std::string, double> scale,
                                     const VerifyReport& report) {
  obs::BenchArtifact artifact;
  artifact.bench = std::move(bench);
  artifact.provenance = obs::collect_provenance();
  artifact.scale = std::move(scale);

  // Canonical side: the refinement tree and its aggregate work counts are
  // deterministic for a fixed workload.
  auto& results = artifact.canonical_results;
  results["root_cells"] = static_cast<double>(report.root_cells);
  results["coverage_percent"] = report.coverage_percent;
  results["leaves"] = static_cast<double>(report.leaves.size());
  for (std::size_t depth = 0; depth < report.proved_by_depth.size(); ++depth) {
    results["proved_by_depth." + std::to_string(depth)] =
        static_cast<double>(report.proved_by_depth[depth]);
  }
  const ReachStats aggregate = aggregate_stats(report);
  results["aggregate.steps_executed"] = static_cast<double>(aggregate.steps_executed);
  results["aggregate.joins"] = static_cast<double>(aggregate.joins);
  results["aggregate.max_states"] = static_cast<double>(aggregate.max_states);
  results["aggregate.total_simulations"] = static_cast<double>(aggregate.total_simulations);

  // Wall side: compared under the regression tolerance, never exactly.
  artifact.wall_seconds = report.seconds;
  auto& wall = artifact.wall_results;
  wall["aggregate.cell_seconds"] = aggregate.seconds;
  wall["phase.simulate_s"] = aggregate.phases.simulate_seconds;
  wall["phase.controller_s"] = aggregate.phases.controller_seconds;
  wall["phase.join_s"] = aggregate.phases.join_seconds;
  wall["phase.check_s"] = aggregate.phases.check_seconds;
  wall["phase.total_s"] = aggregate.phases.total();

  obs::fill_artifact_metrics(artifact, obs::Registry::instance().snapshot());
  return artifact;
}

}  // namespace nncs
