#include "acas_bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "core/run_report.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "util/env.hpp"

namespace nncs::bench {

const scenario::Scenario& acas_scenario() { return scenario::Registry::global().at("acasxu"); }

namespace {

scenario::Partition acas_partition(const BenchScale& scale) {
  return scenario::resolve(acas_scenario(),
                           scenario::Partition{scale.num_arcs, scale.num_headings});
}

std::filesystem::path cache_path(const BenchScale& scale) {
  return "acas_fig9_cache_" + std::to_string(scale.num_arcs) + "x" +
         std::to_string(scale.num_headings) + "d" + std::to_string(scale.max_depth) + ".csv";
}

}  // namespace

BenchScale default_scale() {
  const double scale = env_scale();
  BenchScale s;
  s.num_arcs = std::max<std::size_t>(8, static_cast<std::size_t>(32 * scale));
  s.num_headings = std::max<std::size_t>(4, static_cast<std::size_t>(8 * scale));
  s.max_depth = 1;
  return s;
}

std::vector<scenario::Cell> acas_cells(const BenchScale& scale) {
  return acas_scenario().make_cells(acas_partition(scale));
}

VerifyReport run_or_load_verification(const BenchScale& scale, std::size_t* threads) {
  // Stamp scenario identity into provenance even on the cache-hit path, so
  // every BENCH_*.json carries the workload fingerprint it reports on.
  const scenario::Scenario& scen = acas_scenario();
  const scenario::Partition partition = acas_partition(scale);
  obs::set_scenario(scen.name(), scenario::fingerprint(scen, partition));
  const auto cells = scen.make_cells(partition);
  const auto path = cache_path(scale);
  if (threads != nullptr) {
    *threads = 0;
  }
  if (std::filesystem::exists(path)) {
    try {
      VerifyReport cached = load_report(path);
      // The benches index cells by root and bins by depth.
      const bool fits = cached.root_cells == cells.size() &&
                        std::all_of(cached.leaves.begin(), cached.leaves.end(),
                                    [&scale](const CellOutcome& leaf) {
                                      return leaf.depth <= scale.max_depth;
                                    });
      if (fits) {
        std::printf("[acas-bench] loaded cached verification from %s\n",
                    path.string().c_str());
        return cached;
      }
      std::printf("[acas-bench] cache %s is not a %zu-cell depth-%d run; recomputing\n",
                  path.string().c_str(), cells.size(), scale.max_depth);
    } catch (const std::exception& e) {
      std::printf("[acas-bench] cache %s does not load (%s); recomputing\n",
                  path.string().c_str(), e.what());
    }
  }

  std::printf("[acas-bench] running verification (%zu arcs x %zu headings, depth %d)...\n",
              scale.num_arcs, scale.num_headings, scale.max_depth);
  const scenario::System system = scen.make_system({});
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  EngineConfig engine_config;
  // Paper knobs: τ = 20 s, M = 10, Γ = P = 5.
  engine_config.verify = scen.default_config();
  engine_config.verify.reach.integrator = &integrator;
  engine_config.verify.max_refinement_depth = scale.max_depth;
  engine_config.verify.threads = env_threads();
  engine_config.on_progress = [](const EngineProgress& p) {
    if (p.cells_done % 64 == 0 && p.cells_done > 0) {
      std::fprintf(stderr, "[acas-bench] %zu cells done (%zu proved), queue %zu\n",
                   p.cells_done, p.cells_proved, p.queue_depth);
    }
  };
  // Telemetry on, so the artifact carries the run's engine counters and
  // phase histograms (a cached run has none to report).
  obs::set_enabled(true);
  const VerificationEngine engine(system.loop, *error, *target);
  VerifyReport report = engine.run(scenario::to_symbolic_set(cells), engine_config).report;
  if (threads != nullptr) {
    *threads = engine_config.verify.threads;
  }
  try {
    save_report(report, path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[acas-bench] cannot cache the run: %s\n", e.what());
  }
  return report;
}

std::filesystem::path artifact_dir_from_args(int argc, char** argv) {
  std::filesystem::path dir = ".";
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--artifact-dir")) {
      dir = argv[i + 1];
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "[acas-bench] cannot create artifact dir %s: %s\n",
                 dir.string().c_str(), ec.message().c_str());
  }
  return dir;
}

void write_bench_report(const std::string& bench_name, const BenchScale& scale,
                        const VerifyReport& report, const std::filesystem::path& artifact_dir) {
  const std::filesystem::path path = artifact_dir / ("BENCH_" + bench_name + ".json");
  std::map<std::string, double> artifact_scale = {
      {"num_arcs", static_cast<double>(scale.num_arcs)},
      {"num_headings", static_cast<double>(scale.num_headings)},
      {"max_depth", scale.max_depth}};
  try {
    obs::write_artifact(make_run_artifact(bench_name, std::move(artifact_scale), report), path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[acas-bench] %s\n", e.what());
    return;
  }
  std::printf("[acas-bench] perf report written to %s\n", path.string().c_str());
}

}  // namespace nncs::bench
