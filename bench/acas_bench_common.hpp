#pragma once

// Shared infrastructure for the ACAS Xu benches. Every bench takes its
// workload from the registered "acasxu" scenario (`acas_scenario()`): the
// closed loop from `make_system` (networks cached on disk), the Fig 8 cells
// and the E/T regions, and a `VerifyConfig` that starts from
// `default_config()` (the paper's q=20, M=10, Γ=5) and overrides only what
// the bench sweeps. Here too: the standard figure verification run (cached
// as an `nncs-report` file so fig9a / fig9b / headline share one expensive
// computation), and the `BENCH_<name>.json` artifact every bench writes
// through `make_run_artifact`.

#include <filesystem>
#include <string>
#include <vector>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/scenario.hpp"
#include "core/verifier.hpp"
#include "scenario/scenario.hpp"

namespace nncs::bench {

/// The registered "acasxu" scenario.
const scenario::Scenario& acas_scenario();

/// Partition and refinement depth of a bench run (the artifact's `scale`).
struct BenchScale {
  std::size_t num_arcs;
  std::size_t num_headings;
  int max_depth;
};

/// Default bench-scale partition (scaled by NNCS_SCALE).
BenchScale default_scale();

/// The root cells of the "acasxu" partition at `scale`, indexed like the
/// leaves' `root_index` (each cell's bin is its bearing range).
std::vector<scenario::Cell> acas_cells(const BenchScale& scale);

/// Run the standard §7 verification at `scale` (cells, specs and analysis
/// knobs all come from the registered "acasxu" scenario), or load the
/// report an earlier run saved to
/// `acas_fig9_cache_<arcs>x<headings>d<depth>.csv` in the working directory.
/// The cache is an `nncs-report` file (`save_report`), so it keeps the
/// original run's wall clock and stats; a file that does not load as one
/// is recomputed and overwritten. A non-null `threads` receives the engine
/// thread count of a run made in this process, or 0 for a cached report,
/// which does not record the count it ran with.
VerifyReport run_or_load_verification(const BenchScale& scale,
                                      std::size_t* threads = nullptr);

/// Artifact output directory for a bench main: `--artifact-dir DIR` when
/// present in argv, else the working directory. Created (recursively) when
/// missing so benches can be pointed at a fresh results directory.
std::filesystem::path artifact_dir_from_args(int argc, char** argv);

/// Write `BENCH_<bench_name>.json` into `artifact_dir`: the "nncs-bench v2"
/// artifact `make_run_artifact` builds from `report` at `scale`, so CI can
/// diff perf across commits (tools/nncs_bench_compare) without scraping
/// stdout.
void write_bench_report(const std::string& bench_name, const BenchScale& scale,
                        const VerifyReport& report,
                        const std::filesystem::path& artifact_dir = ".");

}  // namespace nncs::bench
