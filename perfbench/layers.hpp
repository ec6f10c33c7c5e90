#pragma once

/// Per-layer metrics of the traced run, read from outside the program: the
/// decorators' spans and counters, the program's own `obs` spans and
/// counters, the span profile of the recorded trace, the engine report and
/// the NN query cache statistics.

#include <cstddef>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What the traced run observed besides the obs registry and the trace.
struct TracedRun {
  nncs::VerifyReport report;
  double wall_s = 0.0;
  /// Median wall of the untraced runs of the same process.
  double untraced_wall_s = 0.0;
  std::size_t queue_depth_max = 0;
  std::size_t refined = 0;
  /// Median set-up phase times of the same process.
  double make_system_s = 0.0;
  double cells_s = 0.0;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them.
[[nodiscard]] std::vector<Metric> layer_metrics(const Setup& setup, const TracedRun& run,
                                                const nncs::obs::MetricsSnapshot& snapshot,
                                                const nncs::obs::ProfileNode& profile);

}  // namespace perfbench
