// NN query cache A/B bench: the fig8-style partition verification run under
// --nn-cache off / containment, measuring wall-clock, coverage, cache hit
// rates and the number of full symbolic propagations (the nn.symbolic_prop
// span count).
//
// Writes BENCH_nn_cache.json ("nncs-bench-nn-cache v1") with one result
// object per mode.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "acas_bench_common.hpp"
#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace nncs;

struct ModeResult {
  NnCacheMode mode = NnCacheMode::kOff;
  double wall_seconds = 0.0;
  double coverage_percent = 0.0;
  std::size_t leaves = 0;
  NnQueryCache::Stats cache;
  std::uint64_t symbolic_props = 0;  // nn.symbolic_prop span count
};

ModeResult run_mode(NnCacheMode mode, std::size_t arcs, std::size_t headings, int depth,
                    std::size_t threads) {
  obs::Registry::instance().reset();
  NnCacheConfig cache_config;
  cache_config.mode = mode;
  const scenario::Scenario& scen = bench::acas_scenario();
  scenario::SystemConfig system_config;
  system_config.nn_cache = cache_config;
  const scenario::System system = scen.make_system(system_config);
  const auto cells = scen.make_cells({arcs, headings});
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  const TaylorIntegrator integrator(TaylorIntegrator::Config{3, {}});
  EngineConfig config;
  config.verify = scen.default_config();
  config.verify.reach.control_steps = 10;
  config.verify.reach.integration_steps = 4;
  config.verify.reach.integrator = &integrator;
  config.verify.reach.nn_cache = cache_config;
  config.verify.max_refinement_depth = depth;
  config.verify.threads = threads;

  Stopwatch watch;
  const VerificationEngine engine(system.loop, *error, *target);
  const VerifyReport report = engine.run(scenario::to_symbolic_set(cells), config).report;

  ModeResult result;
  result.mode = mode;
  result.wall_seconds = watch.seconds();
  result.coverage_percent = report.coverage_percent;
  result.leaves = report.leaves.size();
  if (const NnQueryCache* cache = system.controller->query_cache()) {
    result.cache = cache->stats();
  }
  const auto snapshot = obs::Registry::instance().snapshot();
  if (const auto* h = snapshot.histogram("nn.symbolic_prop")) {
    result.symbolic_props = h->count;
  }
  std::printf(
      "[nn-cache] %-11s  %6.2f s  coverage %6.2f %%  %zu leaves  "
      "%llu/%llu cache hits  %llu symbolic props\n",
      to_string(mode), result.wall_seconds, result.coverage_percent, result.leaves,
      static_cast<unsigned long long>(result.cache.hits),
      static_cast<unsigned long long>(result.cache.lookups()),
      static_cast<unsigned long long>(result.symbolic_props));
  return result;
}

void write_mode(obs::JsonWriter& w, const ModeResult& r) {
  w.begin_object()
      .field("mode", to_string(r.mode))
      .field("wall_seconds", r.wall_seconds)
      .field("coverage_percent", r.coverage_percent)
      .field("leaves", static_cast<std::uint64_t>(r.leaves))
      .field("symbolic_props", r.symbolic_props)
      .field("cache_hits", r.cache.hits)
      .field("cache_misses", r.cache.misses)
      .field("cache_hit_rate", r.cache.hit_rate())
      .field("containment_hits", r.cache.containment_hits)
      .field("reuse_fallbacks", r.cache.reuse_fallbacks)
      .field("evictions", r.cache.evictions)
      .field("entries", static_cast<std::uint64_t>(r.cache.entries))
      .field("bytes", static_cast<std::uint64_t>(r.cache.bytes))
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path artifact_dir = bench::artifact_dir_from_args(argc, argv);
  const double scale = env_scale();
  const std::size_t arcs = std::max<std::size_t>(8, static_cast<std::size_t>(8 * scale));
  const std::size_t headings = std::max<std::size_t>(4, static_cast<std::size_t>(4 * scale));
  const int depth = 1;
  const std::size_t threads = env_threads();
  std::printf("[nn-cache] partition %zux%zu, depth %d, q=10, M=4, %zu threads\n", arcs,
              headings, depth, threads);

  obs::set_enabled(true);
  std::vector<ModeResult> results;
  for (const NnCacheMode mode : {NnCacheMode::kOff, NnCacheMode::kContainment}) {
    results.push_back(run_mode(mode, arcs, headings, depth, threads));
  }

  const double speedup = results[1].wall_seconds > 0.0
                             ? results[0].wall_seconds / results[1].wall_seconds
                             : 0.0;
  std::printf("[nn-cache] containment speedup over off: %.2fx (coverage %.2f %% -> %.2f %%)\n",
              speedup, results[0].coverage_percent, results[1].coverage_percent);

  const std::filesystem::path report_path = artifact_dir / "BENCH_nn_cache.json";
  std::ofstream out(report_path);
  if (!out) {
    std::fprintf(stderr, "[nn-cache] cannot write %s\n", report_path.string().c_str());
    return 1;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "nncs-bench-nn-cache v1");
  w.field("bench", "nn_cache");
  w.key("provenance");
  obs::write_provenance(w, obs::collect_provenance());
  w.key("scale")
      .begin_object()
      .field("num_arcs", static_cast<std::uint64_t>(arcs))
      .field("num_headings", static_cast<std::uint64_t>(headings))
      .field("max_depth", static_cast<std::int64_t>(depth))
      .field("threads", static_cast<std::uint64_t>(threads))
      .end_object();
  w.key("modes").begin_array();
  for (const ModeResult& r : results) {
    write_mode(w, r);
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::printf("[nn-cache] perf report written to %s\n", report_path.string().c_str());
  return 0;
}
