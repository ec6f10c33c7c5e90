#pragma once

// Shared infrastructure for the ACAS Xu figure benches: the registered
// "acasxu" scenario's closed loop (networks cached on disk), a standard
// verification run (cached as CSV so fig9a / fig9b / headline share one
// expensive computation), and common formatting helpers.

#include <filesystem>
#include <memory>
#include <vector>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"
#include "core/verifier.hpp"
#include "obs/artifact.hpp"

namespace nncs::bench {

/// The assembled ACAS Xu closed loop (owning all parts). Benches that sweep
/// individual knobs still drive `loop` directly with their own cells and
/// regions (via the `acasxu::` helpers included above).
struct AcasSystem {
  std::unique_ptr<Dynamics> plant;
  std::unique_ptr<NeuralController> controller;
  ClosedLoop loop;
};

/// Assemble the registered "acasxu" scenario's closed loop — loading (or
/// training once and caching) the 5 advisory networks with the paper's
/// parameters (T = 1 s). The NN query cache defaults to the `NNCS_NN_CACHE`
/// environment policy (off when unset); pass an explicit config to pin a
/// mode (the nn_cache bench sweeps them).
AcasSystem make_acas_system(NnDomain domain = NnDomain::kSymbolic,
                            const NnCacheConfig& nn_cache = nn_cache_config_from_env());

/// One per-cell verification record, flattened for CSV caching.
struct CellRecord {
  std::size_t root_index = 0;
  int depth = 0;
  /// Bearing/heading ranges of the *root* cell this leaf descends from.
  double bearing_lo = 0.0;
  double bearing_hi = 0.0;
  bool proved = false;
  /// ReachOutcome as its string name.
  std::string outcome;
  double seconds = 0.0;
};

struct AcasRunResult {
  std::vector<CellRecord> leaves;
  std::size_t root_cells = 0;
  double coverage_percent = 0.0;
  std::vector<std::size_t> proved_by_depth;
  double wall_seconds = 0.0;
  std::size_t num_arcs = 0;
  std::size_t num_headings = 0;
  int max_depth = 0;
  /// Summed per-cell stats (aggregate_stats over the report); caches written
  /// before the stats columns existed load with this left zeroed.
  ReachStats aggregate;
};

/// Run the standard §7 verification at the given partition scale (cells,
/// specs and analysis knobs all come from the registered "acasxu" scenario),
/// or load identical cached results from
/// `acas_fig9_cache_<arcs>x<headings>d<depth>.csv` in the working directory.
/// The cache also stores the wall-clock of the original run so timing rows
/// stay meaningful.
AcasRunResult run_or_load_verification(std::size_t num_arcs, std::size_t num_headings,
                                       int max_depth);

/// Default bench-scale partition (scaled by NNCS_SCALE).
struct BenchScale {
  std::size_t num_arcs;
  std::size_t num_headings;
  int max_depth;
};
BenchScale default_scale();

/// Artifact output directory for a bench main: `--artifact-dir DIR` when
/// present in argv, else the `NNCS_ARTIFACT_DIR` environment variable, else
/// the working directory. Created (recursively) when missing so benches can
/// be pointed at a fresh results directory.
std::filesystem::path artifact_dir_from_args(int argc, char** argv);

/// Build the versioned "nncs-bench v2" perf artifact for a standard run:
/// provenance stamp, partition scale, canonical (deterministic) headline
/// numbers and engine counters, wall-clock scalars, per-phase quantile
/// histograms and the full telemetry snapshot.
obs::BenchArtifact make_bench_artifact(const std::string& bench_name, const AcasRunResult& run);

/// Write `BENCH_<bench_name>.json` into `artifact_dir`: the "nncs-bench v2"
/// perf artifact from `make_bench_artifact`. Every figure bench calls this
/// so CI can diff perf across commits (tools/nncs_bench_compare) without
/// scraping stdout.
void write_bench_report(const std::string& bench_name, const AcasRunResult& run,
                        const std::filesystem::path& artifact_dir = ".");

}  // namespace nncs::bench
