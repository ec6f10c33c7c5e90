#pragma once

#include <cstddef>
#include <string>

namespace nncs::obs {

class JsonWriter;
struct MetricsSnapshot;

/// Build/run provenance stamped into every "nncs-bench v2" artifact so perf
/// numbers can be attributed to a commit and environment.
struct Provenance {
  std::string git_sha;         ///< compiled in at configure time ("unknown" outside git)
  std::string build_type;      ///< CMAKE_BUILD_TYPE
  std::string compiler;        ///< compiler id/version string
  std::string compiler_flags;  ///< CMAKE_CXX_FLAGS + the build type's flags
  std::string cpu_model;       ///< /proc/cpuinfo model name ("unknown" elsewhere)
  std::size_t cpu_cores = 0;   ///< hardware concurrency of the machine
  /// Active verification scenario (see set_scenario); "" when no scenario
  /// driver is involved (unit tests, scenario-agnostic tools).
  std::string scenario;
  /// Parameter fingerprint of the (scenario, partition) pair being verified
  /// (scenario::fingerprint); "" when the driver did not stamp one.
  std::string scenario_fingerprint;
  double nncs_scale = 1.0;
  std::size_t nncs_threads = 1;
  bool telemetry_enabled = false;
};

/// Collect the current process provenance (env knobs read at call time).
Provenance collect_provenance();

/// Declare the scenario this process is verifying, optionally with its
/// parameter fingerprint. Stamped into every subsequently collected
/// provenance block, which makes the nn.cache.* / engine.* metrics in
/// BENCH_*.json and `--metrics-out` artifacts attributable to a workload.
/// Call once from the driver before analysis; thread-safe.
void set_scenario(const std::string& name, const std::string& fingerprint = "");

/// Emit as a JSON object value (caller positions the writer at a value
/// slot, e.g. after key("provenance")).
void write_provenance(JsonWriter& w, const Provenance& p);

/// Emit a metrics snapshot as a JSON object value with "counters" (name →
/// value) and "histograms" (name → {count, total_s, min_s, max_s, p50_s,
/// p90_s, p99_s}) members.
void write_metrics(JsonWriter& w, const MetricsSnapshot& snap);

}  // namespace nncs::obs
