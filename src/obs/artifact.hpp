#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace nncs::obs {

/// Versioned, diffable perf artifact ("nncs-bench v2") written as
/// `BENCH_<bench>.json` by the figure benches and by `nncs_verify
/// --metrics-out`, whose runs make the committed perf-gate baselines
/// (tools/perf_gate.cmake).
///
/// The schema separates two classes of data so artifacts from different
/// commits can be compared mechanically (tools/nncs_bench_compare):
///
///  * `canonical` — scheduling- and machine-independent facts of the run
///    (cell counts, coverage, deterministic engine counters). Any drift
///    between two artifacts of the same bench at the same scale is a
///    correctness change, and the compare tool fails on it exactly.
///  * `wall` — wall-clock measurements (total seconds, per-phase span
///    histograms with p50/p90/p99 quantiles). These are compared with a
///    relative tolerance; exceeding it is a perf regression.
struct BenchArtifact {
  std::string bench;
  Provenance provenance;
  /// Workload knobs (partition sizes, depth, thread count) — part of the
  /// artifact identity: comparing different scales is refused.
  std::map<std::string, double> scale;
  /// Deterministic headline results (root_cells, coverage_percent, ...).
  std::map<std::string, double> canonical_results;
  /// Deterministic counters (the engine.cells_* family).
  std::map<std::string, std::uint64_t> canonical_counters;
  /// Headline wall clock of the measured run.
  double wall_seconds = 0.0;
  /// Further wall-clock scalars (aggregate per-phase seconds etc.).
  std::map<std::string, double> wall_results;
  /// Per-phase span histograms (count, total, min/max, p50/p90/p99) from
  /// the telemetry registry, sorted by name.
  std::vector<HistogramSnapshot> phases;
  /// Full informational metrics snapshot (not compared, kept for digging).
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
};

/// Whether a registry counter is scheduling-independent for a fixed
/// workload, and therefore belongs in `canonical_counters`: the
/// engine.cells_* refinement-tree family and the integrator, NN and join
/// work counts (ode.*, nn.relaxed_relus, nn.relational_steps,
/// nn.crossed_bounds, nn.symbolic_macs, nn.zonotope_macs, join.joins,
/// join.distance_evals,
/// core.join_relational_drops). Cache hit
/// counts, by contrast, depend on thread interleaving.
[[nodiscard]] bool is_canonical_counter(std::string_view name);

/// Populate phases/counters/gauges (and the nonzero canonical counters) from
/// a registry snapshot.
void fill_artifact_metrics(BenchArtifact& artifact, const MetricsSnapshot& snap);

/// Serialize as "nncs-bench v2" JSON.
void write_artifact(const BenchArtifact& artifact, std::ostream& os);
/// Throws std::runtime_error when the file cannot be written.
void write_artifact(const BenchArtifact& artifact, const std::filesystem::path& path);

/// Parse an "nncs-bench v2" document. Throws std::runtime_error on
/// malformed, non-artifact or other-schema input.
[[nodiscard]] BenchArtifact parse_artifact(std::string_view json);
[[nodiscard]] BenchArtifact load_artifact(const std::filesystem::path& path);

/// Schema validation beyond parseability: required provenance fields
/// present, quantiles ordered (p50 <= p90 <= p99 <= max per phase),
/// nonnegative wall clock. Returns human-readable problems; empty = valid.
[[nodiscard]] std::vector<std::string> validate_artifact(const BenchArtifact& artifact);

struct CompareOptions {
  /// Wall-clock regression gate: fail when current exceeds baseline by more
  /// than this percentage.
  double max_regress_percent = 25.0;
  /// Wall-clock rows whose baseline is below this floor are reported but
  /// never gated — sub-centisecond numbers are scheduler noise.
  double min_wall_seconds = 0.01;
};

/// One compared metric. `delta_percent` is (current - baseline) / baseline
/// in percent; 0 when the baseline is 0.
struct CompareRow {
  enum class Kind { kCanonical, kCounter, kWall };
  enum class Status {
    kOk,         ///< equal (canonical) or within tolerance (wall)
    kImproved,   ///< wall clock got faster than the tolerance band
    kRegressed,  ///< wall clock exceeded the regression gate
    kMismatch,   ///< canonical value drifted, or only current has it
    kMissing,    ///< metric present in the baseline, absent in current
    kNew,        ///< wall row with a zero baseline: reported, never gated
  };
  std::string metric;
  Kind kind = Kind::kWall;
  Status status = Status::kOk;
  double baseline = 0.0;
  double current = 0.0;
  double delta_percent = 0.0;
  /// Whether this row participated in the regression gate (wall rows above
  /// the min_wall_seconds floor).
  bool gated = false;
};

/// Outcome of comparing two artifacts of the same bench.
struct CompareReport {
  std::vector<CompareRow> rows;
  /// Bench-identity problems (different bench name, different scale) that
  /// make the wall comparison meaningless. Non-empty => mismatched.
  std::vector<std::string> identity_errors;

  [[nodiscard]] bool regressed() const;
  [[nodiscard]] bool mismatched() const;
  /// Compare-tool exit code: 0 clean, 1 wall regression, 2 canonical
  /// mismatch / missing metric / identity error (2 dominates 1).
  [[nodiscard]] int exit_code() const;
};

/// Diff `current` against `baseline`: canonical results/counters compared
/// exactly, wall-clock rows against the regression gate. Self-compare is
/// always clean.
[[nodiscard]] CompareReport compare_artifacts(const BenchArtifact& baseline,
                                              const BenchArtifact& current,
                                              const CompareOptions& options = {});

[[nodiscard]] const char* to_string(CompareRow::Status status);

/// Emit the comparison as machine JSON ({"schema":"nncs-bench-compare v1"}).
void write_compare_report(const CompareReport& report, const CompareOptions& options,
                          std::ostream& os);

}  // namespace nncs::obs
