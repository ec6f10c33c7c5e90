// Loop-domain ablation behind BENCH_domain.json: the same pinned workloads
// run once per LoopDomain (box vs zonotope), measuring what threading the
// relational abstraction through the closed loop actually buys — proved
// leaves, coverage, refinement splits (engine.cells_refined) and wall clock.
// Each leg's nonzero canonical counters (`obs::is_canonical_counter`) enter
// the canonical section, so the gate also fails on a change in work done.
//
// Two workloads, both fixed-scale and fixed-thread (the artifact's canonical
// section is compared exactly across machines, like bench_canonical):
//
//  * pendulum 8x8 depth 2 — the showcase: rotational dynamics make the boxed
//    loop wrap at every controller hand-off, so the zonotope domain proves
//    every cell with a handful of splits while box refines an order of
//    magnitude more and still leaves the outer band error-reachable. This
//    workload carries the "measurably fewer splits" claim.
//  * acasxu 6x2 depth 1 (q=10, M=4, gamma=5) — the regression guard: at this
//    affordable scale the two domains split identically, pinning the fact
//    that the zonotope path never *adds* refinement work on the original
//    benchmark (its coverage gains show up at larger scales).
//
// Flags: --acas-nets DIR / --pendulum-nets DIR (network cache directories,
// default the scenarios' relative paths), --artifact-dir DIR.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "acas_bench_common.hpp"
#include "core/engine.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "scenario/scenario.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace nncs;

// Single-threaded on purpose: the artifact's wall rows carry per-phase
// times, and multi-threaded phase attribution sums contended per-cell laps,
// burying the controller phase in scheduler noise.
constexpr std::size_t kThreads = 1;
// Wall rows take the minimum over this many runs of each leg (canonical
// numbers are asserted identical across them) — min-of-N is the standard
// noise floor estimate for sub-100ms phases.
constexpr int kWallReps = 3;

struct Workload {
  const char* scenario;
  scenario::Partition partition;
  int depth;
  int control_steps;      // <= 0 keeps the scenario default
  int integration_steps;  // <= 0 keeps the scenario default
  std::size_t gamma;      // 0 keeps the scenario default
  const char* nets_flag;
};

const Workload kWorkloads[] = {
    {"pendulum", {8, 8}, 2, 0, 0, 0, "--pendulum-nets"},
    {"acasxu", {6, 2}, 1, 10, 4, 5, "--acas-nets"},
};

struct DomainResult {
  std::size_t proved = 0;
  std::size_t leaves = 0;
  double coverage_percent = 0.0;
  std::map<std::string, std::uint64_t> counters;  // nonzero canonical counters
  double seconds = 0.0;
  double controller_seconds = 0.0;
};

DomainResult run_workload(const Workload& w, LoopDomain domain,
                          const std::filesystem::path& nets_dir) {
  const scenario::Scenario& scen = scenario::Registry::global().at(w.scenario);
  const scenario::Partition partition = scenario::resolve(scen, w.partition);

  scenario::SystemConfig system_config;
  if (!nets_dir.empty()) {
    system_config.nets_dir = nets_dir;
  }
  const scenario::System system = scen.make_system(system_config);
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const auto cells = scen.make_cells(partition);

  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  EngineConfig engine_config;
  engine_config.verify = scen.default_config();
  engine_config.verify.reach.integrator = &integrator;
  engine_config.verify.reach.nn_cache = system_config.nn_cache;
  engine_config.verify.reach.domain = domain;
  if (w.control_steps > 0) {
    engine_config.verify.reach.control_steps = w.control_steps;
  }
  if (w.integration_steps > 0) {
    engine_config.verify.reach.integration_steps = w.integration_steps;
  }
  if (w.gamma > 0) {
    engine_config.verify.reach.gamma = w.gamma;
  }
  engine_config.verify.max_refinement_depth = w.depth;
  engine_config.verify.threads = kThreads;

  obs::Registry::instance().reset();
  Stopwatch watch;
  const VerificationEngine engine(system.loop, *error, *target);
  const VerifyReport report =
      engine.run(scenario::to_symbolic_set(cells), engine_config).report;

  DomainResult result;
  result.seconds = watch.seconds();
  result.leaves = report.leaves.size();
  result.coverage_percent = report.coverage_percent;
  for (const auto& leaf : report.leaves) {
    result.proved += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
  }
  // Earlier legs' counters stay registered at zero; as in
  // `obs::fill_artifact_metrics`, zeros are left out.
  for (const auto& c : obs::Registry::instance().snapshot().counters) {
    if (c.value != 0 && obs::is_canonical_counter(c.name)) {
      result.counters[c.name] = c.value;
    }
  }
  result.controller_seconds = aggregate_stats(report).phases.controller_seconds;
  return result;
}

/// One artifact leg: kWallReps runs, canonical numbers asserted identical
/// across them (they are deterministic), wall rows the minimum lap.
DomainResult run_leg(const Workload& w, LoopDomain domain,
                     const std::filesystem::path& nets_dir) {
  DomainResult best = run_workload(w, domain, nets_dir);
  for (int rep = 1; rep < kWallReps; ++rep) {
    const DomainResult again = run_workload(w, domain, nets_dir);
    if (again.proved != best.proved || again.leaves != best.leaves ||
        again.coverage_percent != best.coverage_percent ||
        again.counters != best.counters) {
      throw std::runtime_error(std::string(w.scenario) +
                               ": canonical results varied across repeat runs");
    }
    best.seconds = std::min(best.seconds, again.seconds);
    best.controller_seconds = std::min(best.controller_seconds, again.controller_seconds);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the env-derived knobs before anything reads them: the canonical
  // section must be byte-identical across machines.
  setenv("NNCS_SCALE", "1", 1);
  setenv("NNCS_THREADS", "1", 1);

  const std::filesystem::path artifact_dir = bench::artifact_dir_from_args(argc, argv);
  std::map<std::string, std::filesystem::path> nets_dirs;
  for (int i = 1; i + 1 < argc; ++i) {
    for (const Workload& w : kWorkloads) {
      if (!std::strcmp(argv[i], w.nets_flag)) {
        nets_dirs[w.scenario] = argv[i + 1];
      }
    }
  }

  obs::set_enabled(true);

  obs::BenchArtifact artifact;
  artifact.bench = "domain";
  artifact.provenance = obs::collect_provenance();
  artifact.scale["threads"] = static_cast<double>(kThreads);
  for (const Workload& w : kWorkloads) {
    const std::string prefix = std::string(w.scenario) + ".";
    artifact.scale[prefix + "axis0"] = static_cast<double>(w.partition.axis0);
    artifact.scale[prefix + "axis1"] = static_cast<double>(w.partition.axis1);
    artifact.scale[prefix + "max_depth"] = static_cast<double>(w.depth);
  }

  double total_seconds = 0.0;
  const auto record = [&](const Workload& w, const char* leg, const DomainResult& result) {
    const std::string prefix = std::string(w.scenario) + "." + leg + ".";
    artifact.canonical_results[prefix + "proved"] = static_cast<double>(result.proved);
    artifact.canonical_results[prefix + "leaves"] = static_cast<double>(result.leaves);
    artifact.canonical_results[prefix + "coverage_percent"] = result.coverage_percent;
    for (const auto& [name, value] : result.counters) {
      artifact.canonical_counters[prefix + name] = value;
    }
    const auto refined = result.counters.find("engine.cells_refined");
    const std::uint64_t splits = refined == result.counters.end() ? 0 : refined->second;
    artifact.wall_results[prefix + "seconds"] = result.seconds;
    artifact.wall_results[prefix + "controller_s"] = result.controller_seconds;
    total_seconds += result.seconds;
    std::printf("[bench-domain] %-8s %-15s coverage %6.2f %%  proved %4zu/%-4zu  "
                "splits %4llu  %.2f s (controller %.2f s)\n",
                w.scenario, leg, result.coverage_percent, result.proved, result.leaves,
                static_cast<unsigned long long>(splits), result.seconds,
                result.controller_seconds);
  };
  for (const Workload& w : kWorkloads) {
    for (const LoopDomain domain : {LoopDomain::kBox, LoopDomain::kZonotope}) {
      DomainResult result;
      try {
        result = run_leg(w, domain, nets_dirs[w.scenario]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench-domain] %s/%s failed: %s\n", w.scenario, to_string(domain),
                     e.what());
        return 1;
      }
      record(w, to_string(domain), result);
    }
  }
  artifact.wall_seconds = total_seconds;

  const std::filesystem::path path = artifact_dir / "BENCH_domain.json";
  try {
    obs::write_artifact(artifact, path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench-domain] %s\n", e.what());
    return 1;
  }
  std::printf("[bench-domain] perf report written to %s\n", path.string().c_str());
  return 0;
}
