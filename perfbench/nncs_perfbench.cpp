/// One workload run of the end-to-end verification benchmark.
///
///   nncs_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  --nets DIR --out DIR
///   nncs_perfbench --prepare --nets DIR
///
/// Assembles the workload through the scenario registry (networks trained
/// into DIR on first use, before anything is timed; --prepare does that for
/// every workload and exits), times the set-up repeatedly, then times
/// `VerificationEngine::run` over the seeded root cells with telemetry off
/// until S seconds are used. With --trace 1 it
/// instead splits the time between untraced runs and one traced run
/// through the forwarding decorators, and reports the per-layer metrics;
/// the trace, its span profile and a per-cell table go to the --out
/// directory. The correctness checks (verdict digest across every run,
/// concrete trajectories from every safe leaf) run outside the timed
/// regions. The last line of standard output is one JSON object; the exit
/// code is 0 when the run was correct and 1 otherwise.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "decorators.hpp"
#include "layers.hpp"
#include "nn/kernels.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "workload.hpp"

extern char** environ;

namespace {

using perfbench::Metric;

/// Recorded trace events kept for the trace file. Past this the recorder
/// stops (the span histograms keep counting, so per-layer totals still
/// cover the whole run); it bounds the memory of the recorder and of the
/// trace checker, which parses the file into a DOM.
constexpr std::uint64_t kTraceEventCap = 100000;

/// Every NNCS_* variable is removed before anything reads one, so a
/// developer's shell cannot change a workload (threads, cache, batch width,
/// SIMD back end, scale, budgets, checkpoints, tracing).
std::vector<std::string> clear_nncs_environment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("NNCS_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
  return names;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image (VmHWM). Not getrusage's
/// ru_maxrss: Linux carries that over from the pre-exec image, i.e. from
/// whatever process forked this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median over 5 interleaved subsets (sample i goes to subset i mod 5) of
/// each subset's mean. Every subset spans the whole time window, so its
/// mean averages over the machine's fast and slow spells, and the median
/// drops a subset that caught a rare stall. A plain median would instead
/// jump between the spells' two levels from run to run.
double median_of_means(const std::vector<double>& values) {
  constexpr std::size_t kSubsets = 5;
  std::vector<double> means;
  for (std::size_t k = 0; k < kSubsets && k < values.size(); ++k) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = k; i < values.size(); i += kSubsets) {
      sum += values[i];
      ++n;
    }
    means.push_back(sum / static_cast<double>(n));
  }
  return median(std::move(means));
}

std::vector<Metric> end_to_end_names() {
  return {{"verify_s", "s", 0.0},     {"cpu_s", "s", 0.0},         {"setup_s", "s", 0.0},
          {"peak_rss_mb", "MB", 0.0}, {"coverage_pct", "%", 0.0}, {"safe_pct", "%", 0.0}};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::filesystem::path nets = "nets";
  std::filesystem::path out = ".";
  bool prepare = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --nets DIR\n"
               "          --out DIR\n"
               "       %s --prepare --nets DIR\n",
               argv0, argv0);
  std::exit(2);
}

std::uint64_t parse_seed(const char* argv0, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    std::fprintf(stderr, "%s: --seed expects a non-negative integer, got '%s'\n", argv0, text);
    std::exit(2);
  }
  return value;
}

double parse_number(const char* argv0, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(value >= 0.0)) {
    std::fprintf(stderr, "%s: %s expects a non-negative number, got '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  return value;
}

/// One timed engine run.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  nncs::EngineResult result;
};

Pass run_pass(perfbench::Setup& setup, const nncs::ClosedLoop& loop,
              const nncs::StateRegion& error, const nncs::StateRegion& target,
              const nncs::EngineConfig& config) {
  // A fresh memo cache per pass: every pass does the same work.
  setup.system.controller->configure_cache(setup.engine.verify.reach.nn_cache);
  const nncs::VerificationEngine engine(loop, error, target);
  Pass pass;
  const double cpu0 = process_cpu_s();
  const nncs::Stopwatch watch;
  pass.result = engine.run(setup.cells, config);
  pass.wall_s = watch.seconds();
  pass.cpu_s = process_cpu_s() - cpu0;
  return pass;
}

void write_metrics(nncs::obs::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  json.end_object();
}

/// Per (root, depth) analysis count and seconds from the recorded
/// `cell.analyze` spans, whose tags name the cell.
void write_cell_table(const std::vector<nncs::obs::TrackedTraceEvent>& events,
                      const std::filesystem::path& path) {
  std::map<std::pair<std::int64_t, std::int64_t>, std::pair<std::size_t, double>> cells;
  for (const auto& tracked : events) {
    const nncs::obs::TraceEvent& e = tracked.event;
    if (std::strcmp(e.name, "cell.analyze") != 0 || e.arg_key0 == nullptr ||
        e.arg_key1 == nullptr) {
      continue;
    }
    auto& [count, seconds] = cells[{e.arg_val0, e.arg_val1}];
    ++count;
    seconds += 1e-9 * static_cast<double>(e.duration_ns);
  }
  std::ofstream os(path);
  os << "root,depth,analyses,seconds\n";
  for (const auto& [key, value] : cells) {
    os << key.first << ',' << key.second << ',' << value.first << ',' << value.second << '\n';
  }
}

int run(const Args& args, const perfbench::WorkloadSpec& spec) {
  const std::vector<std::string> cleared = clear_nncs_environment();
  nncs::obs::set_enabled(false);
  std::filesystem::create_directories(args.out);

  // Untimed: trains any missing or stale network cache, so the timed
  // set-ups below only ever load.
  perfbench::Setup setup = perfbench::assemble(spec, args.seed, args.nets);

  // Set-up time. One assembly takes 0.3-8 ms, short enough to see the
  // machine in a single state, and this shared machine's speed shifts by
  // up to 2x every second or so. So repetitions run in blocks spread over
  // the whole measurement (four 0.25 s apart before the first engine run,
  // one after every run) and are summarised by `median_of_means`.
  std::vector<double> setup_s;
  std::vector<double> make_system_s;
  std::vector<double> cells_s;
  const auto time_setups = [&] {
    const nncs::Stopwatch watch;
    for (int reps = 0; reps < 5 || (watch.seconds() < 0.05 && reps < 100); ++reps) {
      setup = perfbench::assemble(spec, args.seed, args.nets);
      make_system_s.push_back(setup.make_system_s);
      cells_s.push_back(setup.cells_s);
      setup_s.push_back(setup.make_system_s + setup.cells_s);
    }
  };
  for (int block = 0; block < 4; ++block) {
    if (block > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    time_setups();
  }

  const nncs::VerifyConfig& vc = setup.engine.verify;
  const nncs::NnCacheConfig& cache = vc.reach.nn_cache;
  std::printf("workload %s seed %llu: %zu root cells\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), setup.cells.size());
  std::printf(
      "config: threads=%zu nn_batch=%zu nn_cache=%s(max %zu) simd=%s loop_domain=%s q=%d M=%d "
      "gamma=%zu depth=%d order=%d cleared_env=%zu\n",
      vc.threads, vc.reach.nn_batch, nncs::to_string(cache.mode), cache.max_entries,
      nncs::kern::to_string(nncs::kern::active_isa()), nncs::to_string(vc.reach.domain),
      vc.reach.control_steps, vc.reach.integration_steps, vc.reach.gamma,
      vc.max_refinement_depth, setup.integrator->config().order, cleared.size());
  for (const std::string& name : cleared) {
    std::printf("config: cleared %s\n", name.c_str());
  }

  // Untimed-run budget: all of it without tracing, half of it with (the
  // traced run takes the other half and more).
  const double untraced_budget = args.trace != 0 ? 0.5 * args.seconds : args.seconds;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::set<std::string> digests;
  Pass last;
  double rss_mb = 0.0;
  const nncs::Stopwatch budget;
  do {
    last = run_pass(setup, setup.system.loop, *setup.error, *setup.target, setup.engine);
    walls.push_back(last.wall_s);
    cpus.push_back(last.cpu_s);
    digests.insert(perfbench::verdict_digest(last.result.report));
    if (walls.size() == 1) {
      // Peak of set-up plus one run. Later runs repeat the same work, but
      // each one's fresh worker threads leave the allocator holding a
      // little more, which would make the peak depend on the run count.
      rss_mb = peak_rss_mb();
    }
    time_setups();
  } while (budget.seconds() < untraced_budget);

  std::vector<Metric> metrics;
  std::string trace_file;
  if (args.trace != 0) {
    const perfbench::TimedIntegrator integrator(*setup.integrator);
    const perfbench::TimedController controller(*setup.system.controller);
    const perfbench::TimedRegion error(*setup.error);
    const perfbench::TimedRegion target(*setup.target);
    const nncs::ClosedLoop loop{setup.system.loop.plant, &controller, setup.system.loop.period};
    nncs::EngineConfig config = setup.engine;
    config.verify.reach.integrator = &integrator;

    perfbench::TracedRun traced;
    auto& recorder = nncs::obs::TraceRecorder::instance();
    nncs::Stopwatch since_check;
    config.on_progress = [&](const nncs::EngineProgress& p) {
      traced.queue_depth_max = std::max(traced.queue_depth_max, p.queue_depth);
      traced.refined = p.cells_refined;
      // Each recorded event is one completed span, so the span histograms
      // count the recorded events without touching the recorder's buffers.
      if (recorder.active() && since_check.seconds() > 0.05) {
        since_check.reset();
        std::uint64_t spans = 0;
        for (const auto& h : nncs::obs::Registry::instance().snapshot().histograms) {
          spans += h.count;
        }
        if (spans > kTraceEventCap) {
          recorder.stop();
        }
      }
    };
    nncs::obs::Registry::instance().reset();
    nncs::obs::set_enabled(true);
    recorder.start();
    const Pass pass = run_pass(setup, loop, error, target, config);
    recorder.stop();
    nncs::obs::set_enabled(false);

    digests.insert(perfbench::verdict_digest(pass.result.report));
    traced.report = pass.result.report;
    traced.wall_s = pass.wall_s;
    traced.untraced_wall_s = median(walls);
    traced.make_system_s = median_of_means(make_system_s);
    traced.cells_s = median_of_means(cells_s);
    const auto events = recorder.events();
    const nncs::obs::ProfileNode profile = nncs::obs::build_profile(events);
    metrics = perfbench::layer_metrics(setup, traced,
                                       nncs::obs::Registry::instance().snapshot(), profile);
    trace_file = (args.out / "trace.json").string();
    recorder.write_json(std::filesystem::path{trace_file});
    {
      std::ofstream tree(args.out / "profile.txt");
      nncs::obs::write_profile_tree(profile, tree);
    }
    write_cell_table(events, args.out / "cells.csv");
    std::printf("trace: %zu events in %s\n", events.size(), trace_file.c_str());
    last = pass;
  }

  // Correctness, outside every timed region.
  const nncs::VerifyReport& report = last.result.report;
  std::set<std::size_t> failed_roots;
  std::vector<std::string> problems;
  if (digests.size() != 1) {
    problems.push_back("verdict digest differs between runs of one seed");
  }
  if (!last.result.complete()) {
    problems.push_back("run stopped before every cell had a verdict");
  }
  for (const nncs::CellOutcome& leaf : report.leaves) {
    if (leaf.outcome == nncs::ReachOutcome::kEnclosureFailure ||
        leaf.outcome == nncs::ReachOutcome::kCancelled) {
      failed_roots.insert(leaf.root_index);
    }
  }
  const perfbench::SoundnessResult soundness =
      perfbench::check_soundness(setup, report, args.seed);
  if (!soundness.violating_roots.empty()) {
    problems.push_back("a concrete trajectory from a safe leaf reached the error set");
  }
  failed_roots.insert(soundness.violating_roots.begin(), soundness.violating_roots.end());
  const bool correct = problems.empty();
  const std::size_t ops = setup.cells.size();
  const std::size_t ops_failed = correct ? failed_roots.size() : ops;
  std::printf("check: digest %s, %zu safe leaves, %zu trajectories, %zu violating roots\n",
              digests.begin()->c_str(), soundness.leaves, soundness.trajectories,
              soundness.violating_roots.size());
  for (const std::string& p : problems) {
    std::printf("check: FAILED: %s\n", p.c_str());
  }

  if (args.trace == 0) {
    const std::size_t split = perfbench::split_factor(vc);
    const bool horizon_is_proof = setup.horizon_is_proof;
    // Coverage is the share of the initial set proved to satisfy the
    // workload's property. For a bounded-horizon property (empty target
    // set) a horizon-exhausted leaf with no error is such a proof.
    const double coverage = perfbench::weighted_percent(
        report, split, [horizon_is_proof](const nncs::CellOutcome& leaf) {
          return leaf.outcome == nncs::ReachOutcome::kProvedSafe ||
                 (horizon_is_proof && leaf.outcome == nncs::ReachOutcome::kHorizonExhausted);
        });
    const double safe = perfbench::weighted_percent(report, split, perfbench::leaf_is_safe);
    metrics = end_to_end_names();
    const double values[] = {median(walls), median(cpus), median_of_means(setup_s),
                             rss_mb,        coverage,     safe};
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      metrics[i].value = values[i];
    }
    std::printf("runs: %zu timed, %zu set-ups; paper coverage %.4f %%\n", walls.size(),
                setup_s.size(), report.coverage_percent);
    std::printf("set-up ms: min %.4f median %.4f max %.4f\n",
                1e3 * *std::min_element(setup_s.begin(), setup_s.end()), 1e3 * median(setup_s),
                1e3 * *std::max_element(setup_s.begin(), setup_s.end()));
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("ops %zu ops_failed %zu\n", ops, ops_failed);

  std::ostringstream line;
  line.precision(17);
  nncs::obs::JsonWriter json(line);
  json.begin_object()
      .field("correct", correct)
      .field("attempted", static_cast<std::uint64_t>(ops))
      .field("failed", static_cast<std::uint64_t>(ops_failed));
  write_metrics(json, metrics);
  json.field("workload", spec.name)
      .field("seed", static_cast<std::uint64_t>(args.seed))
      .field("digest", *digests.begin())
      .field("runs", static_cast<std::uint64_t>(walls.size()))
      .field("trace_file", trace_file)
      .end_object();
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(arg, "--workload")) {
      args.workload = value();
    } else if (!std::strcmp(arg, "--seed")) {
      args.seed = parse_seed(argv[0], value());
    } else if (!std::strcmp(arg, "--seconds")) {
      args.seconds = parse_number(argv[0], arg, value());
    } else if (!std::strcmp(arg, "--trace")) {
      const char* text = value();
      if (std::strcmp(text, "0") != 0 && std::strcmp(text, "1") != 0) {
        usage(argv[0]);
      }
      args.trace = text[0] - '0';
    } else if (!std::strcmp(arg, "--nets")) {
      args.nets = value();
    } else if (!std::strcmp(arg, "--out")) {
      args.out = value();
    } else if (!std::strcmp(arg, "--prepare")) {
      args.prepare = true;
    } else {
      usage(argv[0]);
    }
  }
  if (args.prepare) {
    clear_nncs_environment();
    try {
      for (const perfbench::WorkloadSpec& w : perfbench::workloads()) {
        const nncs::Stopwatch watch;
        const perfbench::Setup setup = perfbench::assemble(w, 0, args.nets);
        std::printf("prepared %s (%.3f s)\n", w.name.c_str(), watch.seconds());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    return 0;
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0], args.workload.c_str());
    return 2;
  }
  try {
    return run(args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
