// Experiment F8 (paper Fig 8): the ribbon-like partition of the possible
// initial states. Reports, for the paper-scale partition and the bench
// scale, the cell counts and granularities — and validates that the
// partition parameters reproduce the paper's numbers (629 arcs of 80 ft,
// 316 heading cells of 0.01 rad, K0 = 198,764).

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numbers>

#include "acas_bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace nncs;
  constexpr double kPi = std::numbers::pi;

  Table table("fig8_partition", {"partition", "arcs", "headings", "cells", "arc_length_ft",
                                 "heading_width_rad"});

  auto add = [&table](const char* name, std::size_t arcs, std::size_t headings,
                      double radius) {
    const auto cells = nncs::bench::acas_scenario().make_cells({arcs, headings});
    const double arc_len = 2.0 * kPi * radius / static_cast<double>(arcs);
    // Heading cells divide the (π + arc_width)-wide penetration cone.
    const double cone = kPi + 2.0 * kPi / static_cast<double>(arcs);
    table.add_row({name, std::to_string(arcs), std::to_string(headings),
                   std::to_string(cells.size()), Table::num(arc_len, 5),
                   Table::num(cone / static_cast<double>(headings), 4)});
  };

  // Paper: 629 arcs x 316 headings = 198,764 cells; arcs ~80 ft; headings
  // ~0.01 rad. (We only *count* at paper scale; running it is the 12-day
  // experiment.) Our builder rounds odd arc counts up to even — 630 here —
  // so the reproduced grid is marginally finer.
  add("paper_scale", 629, 316, 8000.0);
  const auto scale = nncs::bench::default_scale();
  add("bench_scale", scale.num_arcs, scale.num_headings, 8000.0);

  table.print_all(std::cout);
  std::printf("paper reference: 629 arcs x 316 headings = 198,764 cells, 80 ft x 0.01 rad\n");
  return 0;
}
