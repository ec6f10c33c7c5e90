// Canonical perf workload behind tools/nncs_bench_compare: a fixed-scale,
// fixed-thread ACAS Xu verification run whose artifact is committed under
// bench/baselines/. Unlike the figure benches this target deliberately
// ignores NNCS_SCALE / NNCS_THREADS — the workload must be byte-identical
// across machines so the artifact's canonical section can be compared
// exactly (the wall section is tolerance-compared instead). The artifact is
// `make_run_artifact` of the run's report, as for every other bench and for
// `nncs_verify --metrics-out`.
//
// Flags: --nets DIR (network cache directory, default the scenario's),
// --artifact-dir DIR (output directory for the artifact),
// --domain interval|symbolic|zonotope (default symbolic; any other value
// writes BENCH_canonical_acasxu_<domain>.json, so the committed symbolic and
// zonotope baselines stay independent).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "acas_bench_common.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "scenario/scenario.hpp"

namespace {

// The canonical scale: small enough for a ctest smoke run (seconds, not
// minutes), large enough to exercise refinement and every telemetry phase.
constexpr std::size_t kArcs = 6;
constexpr std::size_t kHeadings = 4;
constexpr int kDepth = 1;
constexpr int kControlSteps = 10;
constexpr int kIntegrationSteps = 4;
constexpr std::size_t kGamma = 5;
constexpr std::size_t kThreads = 2;

}  // namespace

int main(int argc, char** argv) {
  using namespace nncs;

  // Pin the env-derived knobs before anything reads them, so the provenance
  // stamp in the artifact reflects the pinned workload, not the machine.
  setenv("NNCS_SCALE", "1", 1);
  setenv("NNCS_THREADS", "2", 1);

  const std::filesystem::path artifact_dir = bench::artifact_dir_from_args(argc, argv);
  std::string nets_dir;
  DomainChoice domain;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--nets")) {
      nets_dir = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--domain")) {
      const auto parsed = parse_domain(argv[i + 1]);
      if (!parsed) {
        std::fprintf(stderr, "[bench-canonical] unknown --domain '%s'\n", argv[i + 1]);
        return 2;
      }
      domain = *parsed;
    }
  }
  const std::string domain_name = to_string(domain);
  const std::string bench_name =
      domain_name == "symbolic" ? "canonical_acasxu" : "canonical_acasxu_" + domain_name;

  obs::set_enabled(true);
  obs::Registry::instance().reset();

  const scenario::Scenario& scen = bench::acas_scenario();
  const scenario::Partition partition =
      scenario::resolve(scen, scenario::Partition{kArcs, kHeadings});
  obs::set_scenario(scen.name(), scenario::fingerprint(scen, partition));

  scenario::SystemConfig system_config;
  system_config.domain = domain.nn;
  if (!nets_dir.empty()) {
    system_config.nets_dir = nets_dir;
  }
  scenario::System system;
  std::unique_ptr<StateRegion> error;
  std::unique_ptr<StateRegion> target;
  try {
    system = scen.make_system(system_config);
    error = scen.make_error_region();
    target = scen.make_target_region();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench-canonical] cannot assemble scenario: %s\n", e.what());
    return 1;
  }

  const auto cells = scen.make_cells(partition);
  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  EngineConfig engine_config;
  engine_config.verify = scen.default_config();
  engine_config.verify.reach.control_steps = kControlSteps;
  engine_config.verify.reach.integration_steps = kIntegrationSteps;
  engine_config.verify.reach.gamma = kGamma;
  engine_config.verify.reach.integrator = &integrator;
  engine_config.verify.reach.nn_cache = system_config.nn_cache;
  engine_config.verify.reach.domain = domain.loop;
  engine_config.verify.max_refinement_depth = kDepth;
  engine_config.verify.threads = kThreads;

  std::printf("[bench-canonical] %zux%zu cells, depth %d, q=%d, M=%d, gamma=%zu, %zu threads, "
              "%s domain\n",
              kArcs, kHeadings, kDepth, kControlSteps, kIntegrationSteps, kGamma, kThreads,
              domain_name.c_str());

  const VerificationEngine engine(system.loop, *error, *target);
  const VerifyReport report =
      engine.run(scenario::to_symbolic_set(cells), engine_config).report;

  std::printf("[bench-canonical] coverage %.2f %%  (%zu leaves, %.2f s)\n",
              report.coverage_percent, report.leaves.size(), report.seconds);
  bench::write_bench_report(bench_name, bench::BenchScale{kArcs, kHeadings, kDepth}, report,
                            artifact_dir);
  return 0;
}
