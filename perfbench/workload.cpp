#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

/// 64-bit FNV-1a, to give every workload its own stream for one seed.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> list;
  {
    // The paper's pipeline at its settings (q=20, M=10, Gamma=5, order 4,
    // depth 1): one of every two neighbouring bearing arcs per heading.
    WorkloadSpec w;
    w.name = "acasxu_box";
    w.scenario = "acasxu";
    w.domain = nncs::LoopDomain::kBox;
    w.block0 = 2;
    w.block1 = 1;
    w.per_block = 1;
    list.push_back(w);
  }
  {
    // Zonotope loop on a coarser grid, where the NN transformer's share is
    // largest: 15 of every 4 arcs x 4 headings block.
    WorkloadSpec w;
    w.name = "acasxu_zonotope";
    w.scenario = "acasxu";
    w.domain = nncs::LoopDomain::kZonotope;
    w.control_steps = 10;
    w.integration_steps = 4;
    w.partition = {12, 8};
    w.block0 = 4;
    w.block1 = 4;
    w.per_block = 15;
    list.push_back(w);
  }
  {
    // cruise_control defaults: 9 of the 10 gap cells at every speed, enough
    // queries to fill the memo cache past its entry cap.
    WorkloadSpec w;
    w.name = "cruise_box";
    w.scenario = "cruise_control";
    w.domain = nncs::LoopDomain::kBox;
    w.block0 = 10;
    w.block1 = 1;
    w.per_block = 9;
    list.push_back(w);
  }
  {
    // pendulum defaults (zonotope loop, depth 2): default-size cells at
    // seeded positions.
    WorkloadSpec w;
    w.name = "pendulum_zonotope";
    w.scenario = "pendulum";
    w.domain = nncs::LoopDomain::kZonotope;
    w.positions = 4000;
    list.push_back(w);
  }
  return list;
}

nncs::SymbolicSet stratified(const std::vector<nncs::scenario::Cell>& cells,
                             const nncs::scenario::Partition& grid, const WorkloadSpec& spec,
                             nncs::Rng& rng) {
  if (cells.size() != grid.axis0 * grid.axis1 || spec.block0 == 0 || spec.block1 == 0) {
    throw std::invalid_argument("perfbench: partition does not match its grid for " +
                                spec.name);
  }
  std::vector<std::size_t> chosen;
  for (std::size_t b0 = 0; b0 < grid.axis0; b0 += spec.block0) {
    for (std::size_t b1 = 0; b1 < grid.axis1; b1 += spec.block1) {
      std::vector<std::size_t> block;
      for (std::size_t i = b0; i < std::min(grid.axis0, b0 + spec.block0); ++i) {
        for (std::size_t j = b1; j < std::min(grid.axis1, b1 + spec.block1); ++j) {
          block.push_back(i * grid.axis1 + j);
        }
      }
      // Partial Fisher-Yates: the first `take` entries are the draw.
      const std::size_t take = std::min(spec.per_block, block.size());
      for (std::size_t k = 0; k < take; ++k) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(k), static_cast<std::int64_t>(block.size() - 1)));
        std::swap(block[k], block[pick]);
        chosen.push_back(block[k]);
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  nncs::SymbolicSet out;
  out.reserve(chosen.size());
  for (const std::size_t index : chosen) {
    out.push_back(cells[index].state);
  }
  return out;
}

nncs::SymbolicSet positioned(const std::vector<nncs::scenario::Cell>& cells,
                             const WorkloadSpec& spec, nncs::Rng& rng) {
  nncs::Box hull = cells.front().state.box();
  for (const auto& cell : cells) {
    hull = nncs::hull(hull, cell.state.box());
  }
  const nncs::Box& shape = cells.front().state.box();
  nncs::SymbolicSet out;
  out.reserve(spec.positions);
  for (std::size_t k = 0; k < spec.positions; ++k) {
    std::vector<nncs::Interval> dims;
    dims.reserve(shape.dim());
    for (std::size_t d = 0; d < shape.dim(); ++d) {
      const double slack = hull[d].width() - shape[d].width();
      const double lo = slack > 0.0 ? hull[d].lo() + rng.uniform(0.0, slack) : shape[d].lo();
      dims.emplace_back(lo, lo + shape[d].width());
    }
    out.push_back(nncs::SymbolicState{nncs::Box{std::move(dims)}, cells.front().state.command});
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> list = make_workloads();
  return list;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

nncs::SymbolicSet root_cells(const nncs::scenario::Scenario& scenario, const WorkloadSpec& spec,
                             std::uint64_t seed) {
  nncs::Rng rng(seed ^ fnv1a(spec.name));
  if (spec.positions > 0) {
    return positioned(scenario.make_cells(scenario.default_partition()), spec, rng);
  }
  const nncs::scenario::Partition grid = nncs::scenario::resolve(scenario, spec.partition);
  return stratified(scenario.make_cells(grid), grid, spec, rng);
}

std::size_t split_factor(const nncs::VerifyConfig& config) {
  return config.split_strategy == nncs::SplitStrategy::kAllDims
             ? std::size_t{1} << config.split_dims.size()
             : 2;
}

Setup assemble(const WorkloadSpec& spec, std::uint64_t seed,
               const std::filesystem::path& nets_dir) {
  const nncs::scenario::Scenario& scenario =
      nncs::scenario::Registry::global().at(spec.scenario);
  Setup setup;
  nncs::Stopwatch watch;
  nncs::scenario::SystemConfig system_config;
  system_config.nets_dir = nets_dir / spec.scenario;
  setup.system = scenario.make_system(system_config);
  setup.error = scenario.make_error_region();
  setup.target = scenario.make_target_region();
  setup.integrator = std::make_unique<nncs::TaylorIntegrator>(
      nncs::TaylorIntegrator::Config{scenario.default_taylor_order(), {}});
  nncs::VerifyConfig& config = setup.engine.verify;
  config = scenario.default_config();
  if (spec.control_steps > 0) {
    config.reach.control_steps = spec.control_steps;
  }
  if (spec.integration_steps > 0) {
    config.reach.integration_steps = spec.integration_steps;
  }
  config.reach.domain = spec.domain;
  config.reach.nn_cache = system_config.nn_cache;
  config.reach.integrator = setup.integrator.get();
  config.threads = kThreads;
  setup.horizon_is_proof =
      dynamic_cast<const nncs::EmptyRegion*>(setup.target.get()) != nullptr;
  setup.make_system_s = watch.lap();
  setup.cells = root_cells(scenario, spec, seed);
  setup.cells_s = watch.seconds();
  return setup;
}

}  // namespace perfbench
