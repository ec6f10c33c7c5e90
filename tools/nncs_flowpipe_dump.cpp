/// Dump the validated flowpipe of one ACAS Xu encounter as CSV — the raw
/// material for Fig 6/7-style plots: per sub-interval enclosure bounds for
/// every state dimension, alongside a concrete RK4 trajectory sampled from
/// the same initial cell (which must stay inside the tube).
///
///   nncs_flowpipe_dump [bearing_rad] [heading_frac] [steps] [M] > pipe.csv
///
/// Every argument must parse as a whole token (steps and M as integers
/// >= 1); anything else exits 2 with the usage line.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/scenario.hpp"
#include "core/reachability.hpp"
#include "core/simulate.hpp"
#include "scenario/scenario.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [bearing_rad] [heading_frac] [steps>=1] [M>=1] > pipe.csv\n",
               argv0);
  std::exit(2);
}

double parse_number(const char* argv0, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !std::isfinite(value)) {
    usage(argv0);
  }
  return value;
}

int parse_count(const char* argv0, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < 1 || value > 1 << 20) {
    usage(argv0);
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nncs;
  namespace ax = nncs::acasxu;

  if (argc > 5) {
    usage(argv[0]);
  }
  const double bearing = argc > 1 ? parse_number(argv[0], argv[1]) : 0.6;
  const double heading_frac = argc > 2 ? parse_number(argv[0], argv[2]) : 0.5;
  const int steps = argc > 3 ? parse_count(argv[0], argv[3]) : 20;
  const int m = argc > 4 ? parse_count(argv[0], argv[4]) : 10;

  const scenario::Scenario& scen = scenario::Registry::global().at("acasxu");
  scenario::System assembled;
  try {
    assembled = scen.make_system({});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot assemble scenario 'acasxu': %s\n", argv[0], e.what());
    return 1;
  }
  const ClosedLoop& system = assembled.loop;

  const Vec center = ax::initial_state(bearing, heading_frac);
  const Box cell{Interval::centered(center[0], 40.0), Interval::centered(center[1], 40.0),
                 Interval::centered(center[2], 0.005), Interval{ax::kVown},
                 Interval{ax::kVint}};

  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();
  const TaylorIntegrator integrator;
  ReachConfig config = scen.default_config().reach;
  config.control_steps = steps;
  config.integration_steps = m;
  config.integrator = &integrator;
  config.record = true;
  const auto result =
      reach_analyze(system, SymbolicSet{{cell, ax::kCoc}}, *error, *target, config);

  std::fprintf(stderr, "outcome: %s after %d steps\n", to_string(result.outcome),
               result.stats.steps_executed);

  // Flowpipe rows: every recorded segment of every symbolic state.
  std::printf("kind,t_lo,t_hi,x_lo,x_hi,y_lo,y_hi,psi_lo,psi_hi\n");
  for (std::size_t j = 0; j < result.flowpipes.size(); ++j) {
    for (const auto& pipe : result.flowpipes[j]) {
      const double seg_len = 1.0 / static_cast<double>(pipe.segments.size());
      for (std::size_t i = 0; i < pipe.segments.size(); ++i) {
        const Box& seg = pipe.segments[i];
        std::printf("tube,%g,%g,%g,%g,%g,%g,%g,%g\n",
                    static_cast<double>(j) + static_cast<double>(i) * seg_len,
                    static_cast<double>(j) + static_cast<double>(i + 1) * seg_len,
                    seg[ax::kIdxX].lo(), seg[ax::kIdxX].hi(), seg[ax::kIdxY].lo(),
                    seg[ax::kIdxY].hi(), seg[ax::kIdxPsi].lo(), seg[ax::kIdxPsi].hi());
      }
    }
  }

  // A concrete trajectory from the cell center for visual comparison.
  const auto sim =
      simulate_closed_loop(system, center, ax::kCoc, *error, *target, steps, m);
  for (const auto& point : sim.trajectory) {
    std::printf("trajectory,%g,%g,%g,%g,%g,%g,%g,%g\n", point.t, point.t,
                point.state[ax::kIdxX], point.state[ax::kIdxX], point.state[ax::kIdxY],
                point.state[ax::kIdxY], point.state[ax::kIdxPsi], point.state[ax::kIdxPsi]);
  }
  return 0;
}
