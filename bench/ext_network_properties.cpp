// Extension E2: network-level verification in the paper's §2 sense — the
// "local robustness" property class (pre-condition box around an input,
// post-condition: the decision does not change), checked with
// `split_verify` (ReluVal-style bisection) on our trained advisory
// networks.
//
// For each representative encounter geometry we take the network's own
// advisory at the box center and verify `argmin_is(that advisory)` over
// boxes of growing radius: the largest PROVED radius is a certified
// decision-stability radius; a DISPROVED verdict comes with a concrete
// input where the advisory flips (the decision boundary enters the box).

#include <cstdio>
#include <iostream>

#include "acas_bench_common.hpp"
#include "acasxu/geometry.hpp"
#include "acasxu/policy.hpp"
#include "nn/argmin_analysis.hpp"
#include "nn/split_verifier.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace nncs;
namespace ax = nncs::acasxu;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kProved:
      return "PROVED";
    case Verdict::kDisproved:
      return "disproved";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace nncs::bench;

  const scenario::System system = acas_scenario().make_system({});
  const auto& networks = system.controller->networks();

  struct Geometry {
    const char* name;
    std::size_t previous;  // selects the network (λ is the identity)
    double rho, theta, psi;
  };
  const Geometry geometries[] = {
      {"far_behind_receding", ax::kCoc, 8000.0, 3.0, 0.0},
      {"head_on_mid_range", ax::kCoc, 4000.0, 0.0, 3.1},
      {"left_crossing", ax::kCoc, 3000.0, 0.8, -1.8},
      {"right_crossing_after_wr", ax::kWR, 3000.0, -0.8, 1.8},
      {"near_miss_after_sl", ax::kSL, 1500.0, 0.3, 2.8},
  };

  Table table("ext_network_properties",
              {"geometry", "center_advisory", "radius", "verdict", "boxes", "time_ms"});
  for (const auto& g : geometries) {
    const Vec center = ax::normalize_features(Vec{g.rho, g.theta, g.psi, ax::kVown, ax::kVint});
    const Network& net = networks[g.previous];
    const std::size_t advisory = concrete_argmin(net.eval(center));
    // Radii in normalized input units (1e-3 of the angle range ~ 0.36 deg).
    for (const double radius : {0.001, 0.005, 0.02}) {
      std::vector<Interval> dims;
      for (std::size_t d = 0; d < 3; ++d) {  // perturb rho, theta, psi only
        dims.push_back(Interval::centered(center[d], radius));
      }
      dims.emplace_back(center[3]);
      dims.emplace_back(center[4]);
      SplitVerifyConfig config;
      config.max_depth = 16;
      Stopwatch watch;
      const auto result =
          split_verify(net, Box{std::move(dims)}, argmin_is(advisory), config);
      table.add_row({g.name, ax::advisory_name(advisory), Table::num(radius, 3),
                     verdict_name(result.verdict), std::to_string(result.boxes_explored),
                     Table::num(watch.millis(), 4)});
    }
  }
  table.print_all(std::cout);
  std::printf(
      "PROVED rows certify a decision-stability (adversarial-robustness) radius in\n"
      "the sense of the paper's §2; disproved rows exhibit a concrete advisory flip\n"
      "inside the box — expected once the radius reaches the decision boundary.\n");
  return 0;
}
