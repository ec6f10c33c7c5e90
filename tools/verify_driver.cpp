#include "verify_driver.hpp"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "core/run_report.hpp"
#include "core/verifier.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "ode/validated_integrator.hpp"
#include "scenario/scenario.hpp"
#include "util/atomic_file.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace nncs::tools {

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

/// Minimum seconds between two --progress-json heartbeat lines.
constexpr double kHeartbeatPeriodSeconds = 0.25;

void handle_sigint(int) {
  g_interrupted = 1;
  // A second Ctrl-C gets the default behavior: kill the process.
  std::signal(SIGINT, SIG_DFL);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario NAME] [--list-scenarios] [--arcs N] [--headings N]\n"
               "          [--depth N] [--gamma N] [--steps N] [--m N] [--order 1..15]\n"
               "          [--domain interval|symbolic|zonotope]\n"
               "          [--nn-cache off|containment]\n"
               "          [--strategy all|widest] [--threads N] [--nets DIR]\n"
               "          [--report FILE] [--canonical-report] [--time-budget SEC]\n"
               "          [--stop-on-violation] [--checkpoint FILE] [--resume FILE]\n"
               "          [--progress] [--progress-json FILE] [--profile-out FILE]\n"
               "          [--trace-out FILE] [--metrics-out FILE] [--artifact-dir DIR]\n"
               "          [--quiet]\n",
               argv0);
  std::exit(2);
}

/// strtol with full-token and range validation; atoi's silent "abc" -> 0 is
/// exactly how a mistyped flag wastes an hours-long run.
long parse_int(const char* argv0, const char* flag, const char* text, long min_value,
               long max_value) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  if (value < min_value || value > max_value) {
    std::fprintf(stderr, "%s: %s must be in [%ld, %ld], got %ld\n", argv0, flag, min_value,
                 max_value, value);
    std::exit(2);
  }
  return value;
}

double parse_seconds(const char* argv0, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(value) || value <= 0.0) {
    std::fprintf(stderr, "%s: %s expects a positive number of seconds, got '%s'\n", argv0,
                 flag, text);
    std::exit(2);
  }
  return value;
}

const char* stop_reason_name(EngineStopReason reason) {
  switch (reason) {
    case EngineStopReason::kComplete:
      return "complete";
    case EngineStopReason::kStopped:
      return "interrupted";
    case EngineStopReason::kViolation:
      return "stopped-on-violation";
  }
  return "?";
}

/// NDJSON heartbeat sink behind --progress-json: one self-contained JSON
/// object per line ("nncs-heartbeat v1"), throttled to one line per period
/// plus the engine's t0 snapshot and a terminal line stamped "final". The
/// engine serializes progress callbacks, so no locking is needed here.
class HeartbeatSink {
 public:
  HeartbeatSink(std::ofstream stream, double period_seconds)
      : stream_(std::move(stream)), period_seconds_(period_seconds) {}

  void observe(const EngineProgress& p) {
    last_ = p;
    if (seq_ > 0 && p.elapsed_seconds - last_emit_seconds_ < period_seconds_) {
      return;
    }
    emit(p, /*final=*/false, nullptr);
  }

  void finish(const char* stop_reason) { emit(last_, /*final=*/true, stop_reason); }

  [[nodiscard]] std::size_t lines() const { return seq_; }

 private:
  void emit(const EngineProgress& p, bool final, const char* stop_reason) {
    obs::JsonWriter w(stream_);
    w.begin_object();
    w.field("schema", "nncs-heartbeat v1");
    w.field("seq", static_cast<std::uint64_t>(seq_++));
    w.field("elapsed_s", p.elapsed_seconds);
    w.field("queue_depth", static_cast<std::uint64_t>(p.queue_depth));
    w.field("in_flight", static_cast<std::uint64_t>(p.in_flight));
    w.field("cells_done", static_cast<std::uint64_t>(p.cells_done));
    w.field("cells_proved", static_cast<std::uint64_t>(p.cells_proved));
    w.field("cells_failed", static_cast<std::uint64_t>(p.cells_failed));
    w.field("cells_refined", static_cast<std::uint64_t>(p.cells_refined));
    if (final) {
      w.field("final", true);
      w.field("stop_reason", stop_reason);
    }
    // Counter/gauge snapshot: the live view a forwarding server can relay
    // verbatim. Cheap at heartbeat cadence (merge-on-read).
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    w.key("counters").begin_object();
    for (const auto& c : snap.counters) {
      w.field(c.name, c.value);
    }
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& g : snap.gauges) {
      w.field(g.name, g.value);
    }
    w.end_object();
    w.end_object();
    stream_ << '\n';
    stream_.flush();  // lines must be visible to a tailing consumer
    last_emit_seconds_ = p.elapsed_seconds;
  }

  std::ofstream stream_;
  double period_seconds_;
  double last_emit_seconds_ = 0.0;
  std::size_t seq_ = 0;
  EngineProgress last_;
};

[[noreturn]] void list_scenarios(const scenario::Registry& registry) {
  for (const scenario::Scenario* s : registry.all()) {
    const scenario::Partition p = s->default_partition();
    const auto axes = s->axis_names();
    std::printf("%-16s v%-3s %zu %s x %zu %s  %s\n", s->name().c_str(),
                s->version().c_str(), p.axis0, axes.first.c_str(), p.axis1,
                axes.second.c_str(), s->description().c_str());
  }
  std::exit(0);
}

}  // namespace

int verify_driver_main(int argc, char** argv) {
  const scenario::Registry& registry = scenario::Registry::global();

  // Pass 1: resolve the scenario (its defaults seed every other flag).
  std::string scenario_name;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--list-scenarios")) {
      list_scenarios(registry);
    } else if (!std::strcmp(argv[i], "--scenario")) {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      scenario_name = argv[i + 1];
    }
  }
  if (scenario_name.empty()) {
    std::fprintf(stderr, "%s: --scenario is required (registered: %s)\n", argv[0],
                 registry.names().c_str());
    return 2;
  }
  const scenario::Scenario* scen = registry.find(scenario_name);
  if (!scen) {
    std::fprintf(stderr, "%s: unknown scenario '%s' (registered: %s)\n", argv[0],
                 scenario_name.c_str(), registry.names().c_str());
    return 2;
  }

  scenario::Partition partition = scen->default_partition();
  EngineConfig engine_config;
  VerifyConfig& config = engine_config.verify;
  config = scen->default_config();
  config.threads = env_threads();
  int taylor_order = scen->default_taylor_order();
  scenario::SystemConfig system_config;
  std::string report_path;
  std::string checkpoint_path;
  std::string resume_path;
  std::string trace_path;
  std::string metrics_path;
  std::string artifact_dir;
  std::string progress_json_path;
  std::string profile_path;
  bool canonical_report = false;
  bool show_progress = false;
  bool quiet = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(argv[0]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--scenario")) {
      need_value(i);  // consumed in pass 1
    } else if (!std::strcmp(arg, "--arcs")) {
      partition.axis0 =
          static_cast<std::size_t>(parse_int(argv[0], arg, need_value(i), 1, 1 << 20));
    } else if (!std::strcmp(arg, "--headings")) {
      partition.axis1 =
          static_cast<std::size_t>(parse_int(argv[0], arg, need_value(i), 1, 1 << 20));
    } else if (!std::strcmp(arg, "--depth")) {
      config.max_refinement_depth =
          static_cast<int>(parse_int(argv[0], arg, need_value(i), 0, 32));
    } else if (!std::strcmp(arg, "--gamma")) {
      config.reach.gamma =
          static_cast<std::size_t>(parse_int(argv[0], arg, need_value(i), 1, 1 << 20));
    } else if (!std::strcmp(arg, "--steps")) {
      config.reach.control_steps =
          static_cast<int>(parse_int(argv[0], arg, need_value(i), 1, 1 << 20));
    } else if (!std::strcmp(arg, "--m")) {
      config.reach.integration_steps =
          static_cast<int>(parse_int(argv[0], arg, need_value(i), 1, 1 << 20));
    } else if (!std::strcmp(arg, "--order")) {
      taylor_order = static_cast<int>(parse_int(argv[0], arg, need_value(i), 1,
                                                TaylorIntegrator::kMaxOrder));
    } else if (!std::strcmp(arg, "--domain")) {
      const auto domain = parse_domain(need_value(i));
      if (!domain) {
        usage(argv[0]);
      }
      config.reach.domain = domain->loop;
      system_config.domain = domain->nn;
    } else if (!std::strcmp(arg, "--nn-cache")) {
      const auto mode = parse_nn_cache_mode(need_value(i));
      if (!mode) {
        usage(argv[0]);
      }
      system_config.nn_cache.mode = *mode;
    } else if (!std::strcmp(arg, "--strategy")) {
      const std::string v = need_value(i);
      if (v == "all") {
        config.split_strategy = SplitStrategy::kAllDims;
      } else if (v == "widest") {
        config.split_strategy = SplitStrategy::kWidestDim;
      } else {
        usage(argv[0]);
      }
    } else if (!std::strcmp(arg, "--threads")) {
      config.threads =
          static_cast<std::size_t>(parse_int(argv[0], arg, need_value(i), 1, 1 << 14));
    } else if (!std::strcmp(arg, "--time-budget")) {
      engine_config.time_budget_seconds = parse_seconds(argv[0], arg, need_value(i));
    } else if (!std::strcmp(arg, "--stop-on-violation")) {
      engine_config.stop_on_violation = true;
    } else if (!std::strcmp(arg, "--nets")) {
      system_config.nets_dir = need_value(i);
    } else if (!std::strcmp(arg, "--report")) {
      report_path = need_value(i);
    } else if (!std::strcmp(arg, "--canonical-report")) {
      canonical_report = true;
    } else if (!std::strcmp(arg, "--checkpoint")) {
      checkpoint_path = need_value(i);
    } else if (!std::strcmp(arg, "--resume")) {
      resume_path = need_value(i);
    } else if (!std::strcmp(arg, "--progress")) {
      show_progress = true;
    } else if (!std::strcmp(arg, "--progress-json")) {
      progress_json_path = need_value(i);
    } else if (!std::strcmp(arg, "--profile-out")) {
      profile_path = need_value(i);
    } else if (!std::strcmp(arg, "--trace-out")) {
      trace_path = need_value(i);
    } else if (!std::strcmp(arg, "--metrics-out")) {
      metrics_path = need_value(i);
    } else if (!std::strcmp(arg, "--artifact-dir")) {
      artifact_dir = need_value(i);
    } else if (!std::strcmp(arg, "--quiet")) {
      quiet = true;
    } else {
      usage(argv[0]);
    }
  }

  partition = scenario::resolve(*scen, partition);
  const std::string domain = to_string(DomainChoice{config.reach.domain, system_config.domain});
  // Each domain produces different frontiers/leaves, and the widest-dim
  // strategy splits into 2 children where all-dims makes 2^k (the resumed
  // run weighs every leaf by its own split factor), so neither may resume
  // into a run that differs in them. Symbolic, all-dims runs keep the
  // unsuffixed fingerprint — existing checkpoints stay valid.
  std::string run_fingerprint = scenario::fingerprint(*scen, partition);
  if (domain != "symbolic") {
    run_fingerprint += ";domain=" + domain;
  }
  if (config.split_strategy == SplitStrategy::kWidestDim) {
    run_fingerprint += ";strategy=widest";
  }
  obs::set_scenario(scen->name(), run_fingerprint);

  // --artifact-dir collects every output of the run in one place: relative
  // output paths are rebased under it (absolute paths are respected).
  if (!artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(artifact_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create artifact dir %s: %s\n", argv[0],
                   artifact_dir.c_str(), ec.message().c_str());
      return 1;
    }
    const auto rebase = [&artifact_dir](std::string& path) {
      if (!path.empty() && std::filesystem::path(path).is_relative()) {
        path = (std::filesystem::path(artifact_dir) / path).string();
      }
    };
    // resume_path rides along so a --checkpoint/--resume pair under one
    // artifact dir round-trips without repeating the directory.
    for (std::string* out : {&report_path, &checkpoint_path, &trace_path, &metrics_path,
                             &progress_json_path, &profile_path, &resume_path}) {
      rebase(*out);
    }
  }

  // Cell layout is needed up front: resume consistency is checked before
  // the (possibly training) controller assembly.
  const std::vector<scenario::Cell> cells = scen->make_cells(partition);

  // Load the resume checkpoint before probing output paths: --resume and
  // --checkpoint may name the same file, and the probe truncates.
  EngineCheckpoint resume_checkpoint;
  if (!resume_path.empty()) {
    try {
      resume_checkpoint = load_checkpoint(std::filesystem::path{resume_path});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cannot resume: %s\n", argv[0], e.what());
      return 1;
    }
    // A frontier from another workload would silently verify the wrong
    // cells; refuse anything whose identity stamp disagrees.
    if (resume_checkpoint.scenario.empty() && resume_checkpoint.fingerprint.empty()) {
      std::fprintf(stderr,
                   "%s: warning: %s is an unstamped v1 checkpoint; cannot verify it "
                   "belongs to scenario '%s'\n",
                   argv[0], resume_path.c_str(), scen->name().c_str());
    } else if (resume_checkpoint.scenario != scen->name()) {
      std::fprintf(stderr,
                   "%s: cannot resume: checkpoint %s belongs to scenario '%s', this run "
                   "verifies '%s'\n",
                   argv[0], resume_path.c_str(), resume_checkpoint.scenario.c_str(),
                   scen->name().c_str());
      return 4;
    } else if (resume_checkpoint.fingerprint != run_fingerprint) {
      std::fprintf(stderr,
                   "%s: cannot resume: checkpoint %s was written under a different "
                   "partition/parameters\n  checkpoint: %s\n  this run:   %s\n",
                   argv[0], resume_path.c_str(), resume_checkpoint.fingerprint.c_str(),
                   run_fingerprint.c_str());
      return 4;
    }
    if (resume_checkpoint.root_cells != cells.size()) {
      std::fprintf(stderr,
                   "%s: cannot resume: checkpoint %s has %zu root cells, this partition "
                   "has %zu\n",
                   argv[0], resume_path.c_str(), resume_checkpoint.root_cells, cells.size());
      return 4;
    }
  }

  // Fail fast on unwritable output paths — verification can run for hours
  // and the results would be lost at the final write otherwise. Append mode
  // leaves an existing file as it is until its final write replaces it
  // (`--checkpoint` may name the file `--resume` just read).
  for (const std::string* out : {&report_path, &checkpoint_path, &trace_path, &metrics_path,
                                 &progress_json_path, &profile_path}) {
    if (!out->empty() && !std::ofstream(*out, std::ios::app)) {
      std::fprintf(stderr, "%s: cannot open for writing: %s\n", argv[0], out->c_str());
      return 1;
    }
  }
  if (!trace_path.empty() || !metrics_path.empty() || !progress_json_path.empty() ||
      !profile_path.empty() || env_flag("NNCS_TRACE")) {
    obs::set_enabled(true);
  }
  // The self-profile is aggregated from recorded spans, so it needs the
  // recorder running even when no trace file was requested.
  if (!trace_path.empty() || !profile_path.empty()) {
    obs::TraceRecorder::instance().start();
  }

  std::printf("scenario %s: %s\n", scen->name().c_str(), scen->description().c_str());
  std::printf("nncs_verify: %zux%zu cells, depth %d, gamma %zu, q=%d, M=%d, order %d, "
              "domain %s\n",
              partition.axis0, partition.axis1, config.max_refinement_depth, config.reach.gamma,
              config.reach.control_steps, config.reach.integration_steps, taylor_order,
              domain.c_str());
  if (!resume_path.empty()) {
    std::printf("resuming from %s: %zu leaves done, %zu cells pending\n", resume_path.c_str(),
                resume_checkpoint.leaves.size(), resume_checkpoint.frontier.size());
  }

  scenario::System system;
  std::unique_ptr<StateRegion> error;
  std::unique_ptr<StateRegion> target;
  try {
    system = scen->make_system(system_config);
    error = scen->make_error_region();
    target = scen->make_target_region();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot assemble scenario '%s': %s\n", argv[0],
                 scen->name().c_str(), e.what());
    return 1;
  }
  config.reach.nn_cache = system_config.nn_cache;

  const TaylorIntegrator integrator(TaylorIntegrator::Config{taylor_order, {}});
  config.reach.integrator = &integrator;

  std::shared_ptr<HeartbeatSink> heartbeat;
  if (!progress_json_path.empty()) {
    std::ofstream stream(progress_json_path, std::ios::trunc);
    if (!stream) {
      std::fprintf(stderr, "%s: cannot open for writing: %s\n", argv[0],
                   progress_json_path.c_str());
      return 1;
    }
    heartbeat = std::make_shared<HeartbeatSink>(std::move(stream), kHeartbeatPeriodSeconds);
  }
  if (show_progress || heartbeat) {
    engine_config.on_progress = [heartbeat, show_progress, watch = Stopwatch{},
                                 last = -2.0](const EngineProgress& p) mutable {
      if (heartbeat) {
        heartbeat->observe(p);
      }
      if (!show_progress) {
        return;
      }
      const double now = watch.seconds();
      if (now - last < 2.0) {
        return;
      }
      last = now;
      std::fprintf(stderr,
                   "[progress] done %zu (proved %zu, failed %zu)  queue %zu  in-flight %zu\n",
                   p.cells_done, p.cells_proved, p.cells_failed, p.queue_depth, p.in_flight);
    };
  }

  RunControl control;
  control.bind_signal_flag(&g_interrupted);
  std::signal(SIGINT, handle_sigint);

  const VerificationEngine engine(system.loop, *error, *target);
  EngineResult result;
  try {
    if (!resume_path.empty()) {
      result = engine.resume(scenario::to_symbolic_set(cells), resume_checkpoint,
                             engine_config, &control);
    } else {
      result = engine.run(scenario::to_symbolic_set(cells), engine_config, &control);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  std::signal(SIGINT, SIG_DFL);
  obs::TraceRecorder::instance().stop();
  if (heartbeat) {
    heartbeat->finish(stop_reason_name(result.stop_reason));
    std::printf("heartbeat stream written to %s (%zu lines)\n", progress_json_path.c_str(),
                heartbeat->lines());
  }

  VerifyReport& report = result.report;
  std::printf("coverage %.2f %%  (%zu proved / %zu leaves, %.1f s) [%s]\n",
              report.coverage_percent, report.proved_leaves, report.leaves.size(),
              report.seconds, stop_reason_name(result.stop_reason));
  if (result.violation.has_value()) {
    std::printf("violation: root cell %zu depth %d is error-reachable\n",
                result.violation->root_index, result.violation->depth);
  }
  const ReachStats aggregate = aggregate_stats(report);
  if (aggregate.phases.total() > 0.0) {
    std::printf("phases: simulate %.2f s, controller %.2f s, join %.2f s, check %.2f s\n",
                aggregate.phases.simulate_seconds, aggregate.phases.controller_seconds,
                aggregate.phases.join_seconds, aggregate.phases.check_seconds);
  }
  if (const NnQueryCache* cache = system.controller->query_cache()) {
    const NnQueryCache::Stats cs = cache->stats();
    std::printf("nn-cache (%s): %llu hits / %llu lookups (%.1f%%, %llu containment, "
                "%llu fallbacks, %llu evictions, %zu entries)\n",
                to_string(cache->mode()), static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.lookups()), 100.0 * cs.hit_rate(),
                static_cast<unsigned long long>(cs.containment_hits),
                static_cast<unsigned long long>(cs.reuse_fallbacks),
                static_cast<unsigned long long>(cs.evictions), cs.entries);
  }
  {
    // Degradation counters of the relational loop: integrator steps that
    // fell back to the boxed remainder (ode.affine_boxed_fallbacks),
    // per-dimension boxed clamps inside otherwise-affine steps
    // (ode.affine_dim_fallbacks), and Γ-joins that demoted a relational
    // state to its hull box (core.join_relational_drops). All zero in the
    // box domain; nonzero values explain precision loss in zonotope runs.
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    const unsigned long long boxed_steps = snap.counter("ode.affine_boxed_fallbacks");
    const unsigned long long dim_clamps = snap.counter("ode.affine_dim_fallbacks");
    const unsigned long long join_drops = snap.counter("core.join_relational_drops");
    if (boxed_steps + dim_clamps + join_drops > 0) {
      std::printf("relational fallbacks: %llu boxed ODE steps, %llu dim clamps, "
                  "%llu join drops\n",
                  boxed_steps, dim_clamps, join_drops);
    }
  }

  if (!quiet) {
    // Per-bin summary over the scenario's bin axis (ACAS Xu: the Fig 9b
    // per-bearing breakdown; grid scenarios: their leading state variable).
    constexpr int kBins = 8;
    double axis_lo = cells.empty() ? 0.0 : cells.front().bin_lo;
    double axis_hi = cells.empty() ? 0.0 : cells.front().bin_hi;
    for (const scenario::Cell& cell : cells) {
      axis_lo = std::min(axis_lo, cell.bin_lo);
      axis_hi = std::max(axis_hi, cell.bin_hi);
    }
    if (axis_hi > axis_lo) {
      const double width = axis_hi - axis_lo;
      std::map<int, std::pair<int, int>> bins;  // bin -> (proved, total)
      for (const auto& leaf : report.leaves) {
        const double mid =
            0.5 * (cells[leaf.root_index].bin_lo + cells[leaf.root_index].bin_hi);
        int bin = static_cast<int>((mid - axis_lo) / width * kBins);
        bin = std::min(std::max(bin, 0), kBins - 1);
        auto& [proved, total] = bins[bin];
        proved += leaf.outcome == ReachOutcome::kProvedSafe ? 1 : 0;
        ++total;
      }
      const auto [bin_name, bin_column] = scen->bin_axis();
      Table table("per_" + bin_name, {"bin", bin_column, "proved_leaves", "total_leaves"});
      for (const auto& [bin, counts] : bins) {
        const double mid = axis_lo + (bin + 0.5) * width / kBins;
        table.add_row({std::to_string(bin), Table::num(mid, 3),
                       std::to_string(counts.first), std::to_string(counts.second)});
      }
      table.print(std::cout);
    }
  }

  // One failed write must not abort the others (results are irreplaceable).
  int status = 0;
  const auto guarded = [&status, argv](const auto& write) {
    try {
      write();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      status = 1;
    }
  };
  if (result.stop_reason == EngineStopReason::kStopped && checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "%s: interrupted with no --checkpoint path; %zu pending cells lost\n",
                 argv[0], result.checkpoint.frontier.size());
  }
  if (!result.complete() && !checkpoint_path.empty()) {
    guarded([&] {
      result.checkpoint.scenario = scen->name();
      result.checkpoint.fingerprint = run_fingerprint;
      save_checkpoint(result.checkpoint, std::filesystem::path{checkpoint_path});
      std::printf("checkpoint written to %s (%zu pending cells); resume with --resume %s\n",
                  checkpoint_path.c_str(), result.checkpoint.frontier.size(),
                  checkpoint_path.c_str());
    });
  }
  // Before the report: --canonical-report strips the timings from it.
  if (!metrics_path.empty()) {
    guarded([&] {
      const auto axes = scen->axis_names();
      std::map<std::string, double> scale = {
          {"num_" + axes.first, static_cast<double>(partition.axis0)},
          {"num_" + axes.second, static_cast<double>(partition.axis1)},
          {"max_depth", config.max_refinement_depth},
          {"control_steps", config.reach.control_steps},
          {"integration_steps", config.reach.integration_steps},
          {"gamma", static_cast<double>(config.reach.gamma)},
          {"taylor_order", taylor_order}};
      // Non-default analysis choices, so runs that differ in them are
      // never compared.
      if (domain != "symbolic") {
        scale["domain." + domain] = 1;
      }
      if (system_config.nn_cache.mode == NnCacheMode::kContainment) {
        scale["nn_cache.containment"] = 1;
      }
      if (config.split_strategy == SplitStrategy::kWidestDim) {
        scale["strategy.widest"] = 1;
      }
      obs::BenchArtifact artifact =
          make_run_artifact("nncs_verify_" + scen->name(), std::move(scale), report);
      // The count this run used, which --threads may set apart from
      // NNCS_THREADS.
      artifact.provenance.nncs_threads = config.threads;
      obs::write_artifact(artifact, std::filesystem::path{metrics_path});
      std::printf("run artifact written to %s\n", metrics_path.c_str());
    });
  }
  if (!report_path.empty()) {
    guarded([&] {
      if (canonical_report) {
        strip_timing(report);
      }
      save_report(report, std::filesystem::path{report_path});
      std::printf("report written to %s%s\n", report_path.c_str(),
                  result.complete() ? "" : " (partial)");
    });
  }
  if (!trace_path.empty()) {
    guarded([&] {
      obs::TraceRecorder::instance().write_json(std::filesystem::path{trace_path});
      std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                  obs::TraceRecorder::instance().event_count());
    });
  }
  if (!profile_path.empty()) {
    guarded([&] {
      const obs::ProfileNode profile = obs::build_profile(obs::TraceRecorder::instance());
      write_file_atomically(profile_path, "profile",
                            [&](std::ostream& os) { obs::write_folded(profile, os); });
      std::printf("folded profile written to %s (%zu spans)\n", profile_path.c_str(),
                  obs::TraceRecorder::instance().event_count());
      if (!quiet && profile.inclusive_ns > 0) {
        std::printf("span self-profile (inclusive/exclusive, heaviest first):\n");
        obs::write_profile_tree(profile, std::cout);
      }
    });
  }
  if (status == 0 && result.stop_reason == EngineStopReason::kStopped) {
    return 3;
  }
  return status;
}

}  // namespace nncs::tools
