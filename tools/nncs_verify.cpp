/// Generic command-line driver: verify any registered scenario.
///
///   nncs_verify --scenario NAME [options]
///   nncs_verify --list-scenarios
///
///     --scenario NAME  which registered scenario to verify (required)
///     --list-scenarios print name/version/default partition/description of
///                      every registered scenario and exit
///     --arcs N         partition cells along axis 0 (scenario default)
///     --headings N     partition cells along axis 1 (scenario default)
///     --depth N        max split-refinement depth
///     --gamma N        symbolic-set threshold Γ, >= 1
///     --steps N        control steps q (τ = q·T)
///     --m N            validated integration steps M
///     --order N        Taylor order of the integrator
///     --domain D       interval | symbolic (box loop) | zonotope (relational
///                      loop); default the scenario's (zonotope for pendulum)
///     --nn-cache M     NN query cache: off (default) | containment
///     --strategy S     refinement: all | widest
///     --threads N      worker threads                        (default: hw)
///     --nets DIR       network cache directory     (scenario default)
///     --report FILE    write the full report CSV here
///     --canonical-report  zero all timing fields in the report CSV so it is
///                      byte-identical across runs and thread counts
///     --time-budget S  wall-clock budget in seconds; on expiry the run
///                      checkpoints and exits
///     --stop-on-violation  exit the moment any cell is error-reachable
///     --checkpoint FILE  where to write the resume checkpoint when the run
///                      is interrupted
///     --resume FILE    continue from a checkpoint written by an earlier run
///                      of the SAME scenario, partition, domain and
///                      strategy; a mismatched checkpoint is refused with
///                      exit code 4
///     --progress       print a progress line (done/proved/queue) every ~2 s
///     --progress-json FILE  write an NDJSON heartbeat ("nncs-heartbeat v1")
///     --profile-out FILE  write the span self-profile as folded stack lines
///     --trace-out FILE write a chrome://tracing / Perfetto trace-event JSON
///     --metrics-out FILE write the run's "nncs-bench v2" artifact (bench
///                      `nncs_verify_<scenario>`; results, counters, wall
///                      clock, metrics, provenance with the scenario
///                      fingerprint), comparable with nncs_bench_compare
///     --artifact-dir DIR rebase every relative output path under DIR
///     --quiet          suppress the per-bin summary
///
/// Analysis knobs not given on the command line use the selected scenario's
/// defaults.
///
/// Exit codes: 0 run complete (or stopped by --stop-on-violation); 3
/// interrupted by budget/SIGINT (checkpoint written if --checkpoint was
/// given); 4 --resume refused (checkpoint from a different scenario or
/// partition); 1 output write failure or a malformed or corrupt --resume
/// checkpoint; 2 usage.

#include "verify_driver.hpp"

int main(int argc, char** argv) { return nncs::tools::verify_driver_main(argc, argv); }
