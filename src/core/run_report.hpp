#pragma once

#include <map>
#include <string>

#include "core/verifier.hpp"
#include "obs/artifact.hpp"

namespace nncs {

/// The "nncs-bench v2" summary of one verification run, the artifact
/// `nncs_verify --metrics-out` and every bench write. From `report`: the
/// canonical results (root cells, coverage, leaves, proved cells per depth,
/// and the deterministic `aggregate_stats` counts, refined-away cells
/// included) and the wall rows (`wall_seconds` is `report.seconds`, plus
/// the aggregate CPU seconds per phase). From the telemetry registry: the
/// canonical engine counters and the metrics snapshot. `scale` names the
/// workload (partition, depth, knobs); artifacts of different scale are
/// never compared.
[[nodiscard]] obs::BenchArtifact make_run_artifact(std::string bench,
                                                   std::map<std::string, double> scale,
                                                   const VerifyReport& report);

}  // namespace nncs
