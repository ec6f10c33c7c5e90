// M1: google-benchmark micro-benchmarks for the computational kernels:
// interval arithmetic, Taylor steps (ACAS Xu by order, and every registered
// plant at its default order), network propagation (concrete,
// interval, symbolic, zonotope), the abstract controller step, one full validated
// control period and the Algorithm 2 Resize.

#include <benchmark/benchmark.h>

#include "acas_bench_common.hpp"
#include "core/symbolic_state.hpp"
#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "nn/symbolic_prop.hpp"
#include "nn/zonotope_prop.hpp"
#include "ode/concrete_integrator.hpp"
#include "util/rng.hpp"

namespace {

using namespace nncs;
namespace ax = nncs::acasxu;

const Box& acas_cell() {
  static const Box cell = [] {
    const Vec center = ax::initial_state(0.6, 0.5);
    return Box{Interval::centered(center[0], 40.0), Interval::centered(center[1], 40.0),
               Interval::centered(center[2], 0.005), Interval{ax::kVown}, Interval{ax::kVint}};
  }();
  return cell;
}

const scenario::System& acas_system() {
  static const scenario::System system = bench::acas_scenario().make_system({});
  return system;
}

void BM_IntervalArithmetic(benchmark::State& state) {
  Interval x(0.3, 0.4);
  Interval y(1.2, 1.3);
  for (auto _ : state) {
    Interval z = x * y + sin(x) * cos(y) - sqr(x);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_IntervalArithmetic);

/// One validated ACAS Xu step at Taylor order state.range(0).
void BM_TaylorStepAcas(benchmark::State& state) {
  const auto plant = ax::make_dynamics();
  const TaylorIntegrator integrator(
      TaylorIntegrator::Config{static_cast<int>(state.range(0)), {}});
  const Vec command{ax::turn_rate(ax::kWL)};
  for (auto _ : state) {
    auto step = integrator.step(*plant, acas_cell(), command, 0.1);
    benchmark::DoNotOptimize(step);
  }
}
BENCHMARK(BM_TaylorStepAcas)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(15);

/// One validated step (h = 0.1) of a registered scenario's plant at the
/// scenario's default Taylor order, from its first initial cell under the
/// zero command every built-in cell starts with.
void BM_TaylorStep(benchmark::State& state, const char* name) {
  const scenario::Scenario& scen = scenario::Registry::global().at(name);
  const auto plant = scen.make_plant();
  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  const Box cell = scen.make_cells(scen.default_partition()).front().state.box();
  const Vec command(plant->command_dim(), 0.0);
  for (auto _ : state) {
    auto step = integrator.step(*plant, cell, command, 0.1);
    benchmark::DoNotOptimize(step);
  }
}
BENCHMARK_CAPTURE(BM_TaylorStep, acasxu, "acasxu");
BENCHMARK_CAPTURE(BM_TaylorStep, cruise_control, "cruise_control");
BENCHMARK_CAPTURE(BM_TaylorStep, pendulum, "pendulum");
BENCHMARK_CAPTURE(BM_TaylorStep, unicycle, "unicycle");

/// One affine (variation-of-constants) step of a registered scenario's
/// plant from its first initial cell lifted to an affine set, under the
/// zero command, at the scenario's default order and the relational loop's
/// sub-step h = period / M.
void BM_AffineStep(benchmark::State& state, const char* name) {
  const scenario::Scenario& scen = scenario::Registry::global().at(name);
  const auto plant = scen.make_plant();
  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  const AffineSet cell =
      AffineSet::from_box(scen.make_cells(scen.default_partition()).front().state.box());
  const Vec command(plant->command_dim(), 0.0);
  double period = 0.0;
  for (const auto& [key, value] : scen.parameters()) {
    if (key == "period") {
      period = std::stod(value);
    }
  }
  const double h = period / scen.default_config().reach.integration_steps;
  for (auto _ : state) {
    auto step = integrator.step_affine(*plant, cell, command, h);
    benchmark::DoNotOptimize(step);
  }
}
BENCHMARK_CAPTURE(BM_AffineStep, pendulum, "pendulum");

void BM_Rk4StepAcas(benchmark::State& state) {
  const auto plant = ax::make_dynamics();
  const Vec s{1000.0, 7000.0, 3.0, 700.0, 600.0};
  const Vec command{ax::turn_rate(ax::kWL)};
  for (auto _ : state) {
    Vec next = rk4_step(*plant, s, command, 0.1);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_Rk4StepAcas);

void BM_NetworkConcreteEval(benchmark::State& state) {
  const auto& net = acas_system().controller->networks().front();
  const Vec x{-0.19, 0.05, 0.2, 0.045, 0.0};
  for (auto _ : state) {
    Vec y = net.eval(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_NetworkConcreteEval);

void BM_NetworkIntervalProp(benchmark::State& state) {
  const auto& net = acas_system().controller->networks().front();
  const Box x(5, Interval{-0.05, 0.05});
  for (auto _ : state) {
    Box y = interval_propagate(net, x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_NetworkIntervalProp);

void BM_NetworkSymbolicProp(benchmark::State& state) {
  const auto& net = acas_system().controller->networks().front();
  const Box x(5, Interval{-0.05, 0.05});
  for (auto _ : state) {
    auto bounds = symbolic_propagate(net, x);
    benchmark::DoNotOptimize(bounds);
  }
}
BENCHMARK(BM_NetworkSymbolicProp);

// Batched symbolic transformer (nn/kernels.hpp) over `range(0)` ACAS Xu-like
// cells per call: rho, theta and psi wide and shifted per cell, v_own a point
// and v_int exactly 0, as Pre# gives for constant speeds (700 and 600 ft/s
// normalized). Per-query cost = time / batch; compare against the scalar
// symbolic bench above.
std::vector<Box> perturbed_cells(std::size_t count) {
  std::vector<Box> cells;
  cells.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double shift = 1e-3 * static_cast<double>(k);
    std::vector<Interval> dims(3, Interval{-0.05 + shift, 0.05 + shift});
    dims.emplace_back(50.0 / 1100.0);
    dims.emplace_back(0.0);
    cells.emplace_back(std::move(dims));
  }
  return cells;
}

void BM_NetworkSymbolicPropBatch(benchmark::State& state) {
  // Packed once, as NeuralController does when it is built.
  const kern::PackedNetwork net =
      kern::pack_network(acas_system().controller->networks().front());
  const auto cells = perturbed_cells(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto bounds = symbolic_propagate_batch(net, cells);
    benchmark::DoNotOptimize(bounds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkSymbolicPropBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

// Post# (argmin) on the symbolic bounds of 64 of the ACAS Xu-like cells
// above through net 0, one query's bounds per iteration.
void BM_PossibleArgminSymbolic(benchmark::State& state) {
  const kern::PackedNetwork net =
      kern::pack_network(acas_system().controller->networks().front());
  const std::vector<SymbolicBounds> bounds = symbolic_propagate_batch(net, perturbed_cells(64));
  std::size_t next = 0;
  for (auto _ : state) {
    auto commands = possible_argmin(bounds[next]);
    benchmark::DoNotOptimize(commands);
    next = (next + 1) % bounds.size();
  }
}
BENCHMARK(BM_PossibleArgminSymbolic);

// A pool of 256 correlated sets over `dim` dimensions: each is a `from_box`
// lift of a small random box mixed through a random interval linear image,
// so its forms share noise symbols as the integrator's sets do.
std::vector<AffineSet> correlated_sets(std::size_t dim) {
  Rng rng(27);
  std::vector<AffineSet> pool;
  for (int k = 0; k < 256; ++k) {
    std::vector<Interval> dims;
    for (std::size_t d = 0; d < dim; ++d) {
      const double center = rng.uniform(-0.5, 0.5);
      dims.emplace_back(center - 0.05, center + 0.05);
    }
    IntervalMatrix m(dim, dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        const double mid = (r == c) ? 1.0 : rng.uniform(-0.4, 0.4);
        const double rad = rng.chance(0.5) ? 0.0 : 1e-6;
        m.at(r, c) = Interval{mid - rad, mid + rad};
      }
    }
    pool.push_back(AffineSet::from_box(Box{std::move(dims)}).linear_image(m));
  }
  return pool;
}

// Zonotope transformer over `range(0)` correlated sets per call, drawn in
// turn from the pool above. Per-query cost = time / range(0).
void BM_NetworkZonotopePropBatch(benchmark::State& state) {
  // Packed once, as NeuralController does when it is built.
  const kern::PackedNetwork net =
      kern::pack_network(acas_system().controller->networks().front());
  const std::vector<AffineSet> pool = correlated_sets(net.input_dim);
  const auto width = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<const AffineSet*>> calls(pool.size() / width);
  for (std::size_t k = 0; k < calls.size() * width; ++k) {
    calls[k / width].push_back(&pool[k]);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto bounds = zonotope_propagate_batch(net, calls[next]);
    benchmark::DoNotOptimize(bounds);
    next = (next + 1) % calls.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkZonotopePropBatch)->Arg(1)->Arg(8);

// Post# (argmin) on the zonotope bounds of 64 sets of the pool above
// through net 0, one query's bounds per iteration.
void BM_PossibleArgminZonotope(benchmark::State& state) {
  const kern::PackedNetwork net =
      kern::pack_network(acas_system().controller->networks().front());
  const std::vector<AffineSet> pool = correlated_sets(net.input_dim);
  std::vector<const AffineSet*> sets;
  for (std::size_t k = 0; k < 64; ++k) {
    sets.push_back(&pool[k]);
  }
  const std::vector<ZonotopeBounds> bounds = zonotope_propagate_batch(net, sets);
  std::size_t next = 0;
  for (auto _ : state) {
    auto commands = possible_argmin(bounds[next]);
    benchmark::DoNotOptimize(commands);
    next = (next + 1) % bounds.size();
  }
}
BENCHMARK(BM_PossibleArgminZonotope);

void BM_AbstractControllerStepBatch(benchmark::State& state) {
  const auto& system = acas_system();
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Box> cells;
  std::vector<std::size_t> prev;
  for (std::size_t k = 0; k < count; ++k) {
    cells.push_back(acas_cell());
    const double shift = 1.0 + static_cast<double>(k);
    cells.back()[0] = Interval{cells.back()[0].lo() + shift, cells.back()[0].hi() + shift};
    prev.push_back(ax::kCoc);
  }
  const std::vector<AbstractState> states_batch(cells.begin(), cells.end());
  for (auto _ : state) {
    auto steps = system.controller->step_abstract_batch(states_batch, prev);
    benchmark::DoNotOptimize(steps);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AbstractControllerStepBatch)->Arg(1)->Arg(8);

void BM_AbstractControllerStep(benchmark::State& state) {
  const auto& system = acas_system();
  for (auto _ : state) {
    auto step = system.controller->step_abstract(acas_cell(), ax::kCoc);
    benchmark::DoNotOptimize(step);
  }
}
BENCHMARK(BM_AbstractControllerStep);

void BM_ValidatedControlPeriod(benchmark::State& state) {
  const auto& system = acas_system();
  const TaylorIntegrator integrator;
  const Vec command{ax::turn_rate(ax::kCoc)};
  for (auto _ : state) {
    Flowpipe pipe = simulate(*system.plant, integrator, acas_cell(), command, 1.0, 10);
    benchmark::DoNotOptimize(pipe);
  }
}
BENCHMARK(BM_ValidatedControlPeriod);

/// A seeded symbolic set to resize: `count` states spread uniformly over
/// `commands`, centres uniform in `centers`, half-widths uniform in
/// [0, `half_width`] per dimension (0 keeps a dimension a point).
struct ResizeShape {
  std::size_t count;
  std::size_t commands;
  std::size_t gamma;
  std::vector<Interval> centers;
  std::vector<double> half_width;
};

SymbolicSet resize_input(const ResizeShape& shape) {
  Rng rng(7);
  SymbolicSet set;
  for (std::size_t k = 0; k < shape.count; ++k) {
    std::vector<Interval> dims;
    for (std::size_t d = 0; d < shape.centers.size(); ++d) {
      const double c = rng.uniform(shape.centers[d].lo(), shape.centers[d].hi());
      dims.push_back(Interval::centered(c, rng.uniform(0.0, shape.half_width[d])));
    }
    set.push_back(SymbolicState{Box{std::move(dims)}, k % shape.commands});
  }
  return set;
}

/// One `resize` call, including the copy of its input set.
void BM_Resize(benchmark::State& state, const ResizeShape& shape) {
  const SymbolicSet input = resize_input(shape);
  for (auto _ : state) {
    SymbolicSet set = input;
    const ResizeStats stats = resize(set, shape.gamma);
    benchmark::DoNotOptimize(stats);
  }
}
// Cruise control: Γ = 24, the set grows to about 96 states over 4 commands.
BENCHMARK_CAPTURE(BM_Resize, cruise_like,
                  ResizeShape{96, 4, 24, {Interval{40.0, 45.0}, Interval{-2.0, -1.0}},
                              {0.5, 0.1}});
// ACAS Xu: Γ = 5 commands, about 25 states, v_own and v_int points.
BENCHMARK_CAPTURE(BM_Resize, acas_like,
                  ResizeShape{25,
                              5,
                              5,
                              {Interval{500.0, 1500.0}, Interval{6700.0, 7300.0},
                               Interval{2.9, 3.1}, Interval{ax::kVown}, Interval{ax::kVint}},
                              {40.0, 40.0, 0.005, 0.0, 0.0}});

}  // namespace

BENCHMARK_MAIN();
