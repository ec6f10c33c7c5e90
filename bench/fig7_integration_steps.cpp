// Experiment F7 (paper Fig 7): precision of the plant over-approximation as
// a function of the number of validated integration steps M per control
// period. A single M = 1 box must enclose the whole period and contains
// many unreachable states; M > 1 tracks the motion much more tightly.
//
// Prints, per M: the hull box of the flowpipe over one period (x/y widths),
// the "swept area" proxy (sum over segments of x-width * y-width) and the
// end-box widths — the paper's figure shows exactly this single-box vs
// multi-box contrast.

#include <cstdio>
#include <iostream>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace nncs;
  namespace ax = nncs::acasxu;

  const auto plant = ax::make_dynamics();
  const TaylorIntegrator integrator;

  // A representative initial cell: intruder ahead-left on the sensor circle,
  // closing, with the paper's partition granularity (80 ft x 0.01 rad).
  const Vec center = ax::initial_state(0.6, 0.5);
  const Box cell{Interval::centered(center[0], 40.0), Interval::centered(center[1], 40.0),
                 Interval::centered(center[2], 0.005), Interval{ax::kVown},
                 Interval{ax::kVint}};
  const Vec command{ax::turn_rate(ax::kWL)};

  Table table("fig7_integration_steps",
              {"M", "hull_x_width_ft", "hull_y_width_ft", "swept_area_ft2", "end_x_width_ft",
               "end_y_width_ft", "end_psi_width_rad"});
  for (const int m : {1, 2, 4, 10, 20}) {
    const Flowpipe pipe = simulate(*plant, integrator, cell, command, 1.0, m);
    if (!pipe.ok) {
      std::printf("M=%d: validated simulation failed\n", m);
      continue;
    }
    const Box hull = pipe.hull_box();
    double swept = 0.0;
    for (const auto& segment : pipe.segments) {
      swept += segment[ax::kIdxX].width() * segment[ax::kIdxY].width();
    }
    table.add_row({std::to_string(m), Table::num(hull[ax::kIdxX].width(), 5),
                   Table::num(hull[ax::kIdxY].width(), 5), Table::num(swept, 5),
                   Table::num(pipe.end[ax::kIdxX].width(), 5),
                   Table::num(pipe.end[ax::kIdxY].width(), 5),
                   Table::num(pipe.end[ax::kIdxPsi].width(), 5)});
  }
  table.print_all(std::cout);
  std::printf(
      "Expected shape (paper Fig 7): the M = 1 box smears the whole period's motion\n"
      "into one box (largest swept area); the swept area falls with M until the\n"
      "initial cell width (~85 ft here) dominates each segment, after which more\n"
      "steps stop helping — matching the paper's choice of a moderate M = 10.\n");
  return 0;
}
