#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

struct Column {
  const char* name;
  const char* unit;
};

/// Layer -> metric table; the order is the order of BENCHMARK.json.
constexpr Column kColumns[] = {
    {"scenario.make_system_s", "s"},
    {"scenario.cells_s", "s"},
    {"engine.analyses", "count"},
    {"engine.refined", "count"},
    {"engine.analysis_s", "s"},
    {"engine.busy_ratio", "ratio"},
    {"engine.idle_s", "s"},
    {"engine.queue_depth_max", "count"},
    {"reachability.leaves", "count"},
    {"reachability.steps", "count"},
    {"reachability.simulations", "count"},
    {"reachability.max_states", "count"},
    {"reachability.cell_p50_ms", "ms"},
    {"reachability.cell_p90_ms", "ms"},
    {"reachability.self_s", "s"},
    {"symbolic_state.joins", "count"},
    {"symbolic_state.resize_s", "s"},
    {"symbolic_state.resize_pct", "%"},
    {"symbolic_state.relational_drops", "count"},
    {"ode.steps", "count"},
    {"ode.step_s", "s"},
    {"ode.step_us", "us"},
    {"ode.pct", "%"},
    {"ode.step_failed", "count"},
    {"ode.affine_steps", "count"},
    {"ode.affine_step_s", "s"},
    {"ode.boxed_fallbacks", "count"},
    {"ode.taylor_s", "s"},
    {"ode.picard_s", "s"},
    {"controller.calls", "count"},
    {"controller.queries", "count"},
    {"controller.lanes_per_call", "lanes/call"},
    {"controller.s", "s"},
    {"controller.query_us", "us"},
    {"controller.pct", "%"},
    {"controller.commands_per_query", "cmds/query"},
    {"nn.symbolic_s", "s"},
    {"nn.zonotope_s", "s"},
    {"nn.argmin_s", "s"},
    {"nn.relaxed_relus", "count"},
    {"nn.cache.hits", "count"},
    {"nn.cache.misses", "count"},
    {"nn.cache.hit_ratio", "ratio"},
    {"nn.cache.evictions", "count"},
    {"nn.cache.bytes", "B"},
    {"nn.cache.lookup_s", "s"},
    {"specs.checks", "count"},
    {"specs.s", "s"},
    {"obs.trace_overhead_pct", "%"},
};

/// Span totals and counts of the traced run by span name.
class Spans {
 public:
  explicit Spans(const nncs::obs::MetricsSnapshot& snapshot) : snapshot_(&snapshot) {}

  [[nodiscard]] double seconds(std::string_view name) const {
    const auto* h = snapshot_->histogram(name);
    return h == nullptr ? 0.0 : h->total_seconds;
  }
  [[nodiscard]] double count(std::string_view name) const {
    const auto* h = snapshot_->histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->count);
  }
  [[nodiscard]] double counter(std::string_view name) const {
    return static_cast<double>(snapshot_->counter(name));
  }

 private:
  const nncs::obs::MetricsSnapshot* snapshot_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

std::vector<Metric> layer_metrics(const Setup& setup, const TracedRun& run,
                                  const nncs::obs::MetricsSnapshot& snapshot,
                                  const nncs::obs::ProfileNode& profile) {
  const Spans spans(snapshot);
  const nncs::ReachStats totals = nncs::aggregate_stats(run.report);
  std::map<std::string, double, std::less<>> v;

  v["scenario.make_system_s"] = run.make_system_s;
  v["scenario.cells_s"] = run.cells_s;

  // engine: every reach_analyze call is one `cell.analyze` span.
  const double analysis_s = spans.seconds("cell.analyze");
  const double worker_s = run.wall_s * static_cast<double>(setup.engine.verify.threads);
  v["engine.analyses"] = spans.count("cell.analyze");
  v["engine.refined"] = static_cast<double>(run.refined);
  v["engine.analysis_s"] = analysis_s;
  v["engine.busy_ratio"] = ratio(analysis_s, worker_s);
  v["engine.idle_s"] = worker_s - analysis_s;
  v["engine.queue_depth_max"] = static_cast<double>(run.queue_depth_max);

  // reachability: the analysis loop itself. Its self time is the
  // `cell.analyze` time outside every span the profile shows directly
  // beneath it (the wrapped layers and the resize joins).
  std::vector<double> leaf_ms;
  leaf_ms.reserve(run.report.leaves.size());
  for (const nncs::CellOutcome& leaf : run.report.leaves) {
    leaf_ms.push_back(leaf.stats.seconds * 1e3);
  }
  double children_s = 0.0;
  if (const auto it = profile.children.find("cell.analyze"); it != profile.children.end()) {
    for (const auto& [name, child] : it->second.children) {
      children_s += spans.seconds(name);
    }
  }
  v["reachability.leaves"] = static_cast<double>(run.report.leaves.size());
  v["reachability.steps"] = static_cast<double>(totals.steps_executed);
  v["reachability.simulations"] = static_cast<double>(totals.total_simulations);
  v["reachability.max_states"] = static_cast<double>(totals.max_states);
  v["reachability.cell_p50_ms"] = percentile(leaf_ms, 0.5);
  v["reachability.cell_p90_ms"] = percentile(leaf_ms, 0.9);
  v["reachability.self_s"] = analysis_s - children_s;

  v["symbolic_state.joins"] = static_cast<double>(totals.joins);
  v["symbolic_state.resize_s"] = totals.phases.join_seconds;
  v["symbolic_state.resize_pct"] = 100.0 * ratio(totals.phases.join_seconds, analysis_s);
  v["symbolic_state.relational_drops"] = spans.counter("core.join_relational_drops");

  const double ode_steps = spans.count("bench.ode.step") + spans.count("bench.ode.step_affine");
  const double ode_s = spans.seconds("bench.ode.step") + spans.seconds("bench.ode.step_affine");
  v["ode.steps"] = ode_steps;
  v["ode.step_s"] = ode_s;
  v["ode.step_us"] = 1e6 * ratio(ode_s, ode_steps);
  v["ode.pct"] = 100.0 * ratio(ode_s, analysis_s);
  v["ode.step_failed"] = spans.counter("bench.ode.step_failed");
  v["ode.affine_steps"] = spans.count("affine_step");
  v["ode.affine_step_s"] = spans.seconds("affine_step");
  v["ode.boxed_fallbacks"] = spans.counter("ode.affine_boxed_fallbacks");
  v["ode.taylor_s"] = spans.seconds("taylor_tighten");
  v["ode.picard_s"] = spans.seconds("picard");

  constexpr const char* kControllerSpans[] = {
      "bench.controller.step_abstract_batch", "bench.controller.step_abstract",
      "bench.controller.step_abstract_relational", "bench.controller.step"};
  double calls = 0.0;
  double controller_s = 0.0;
  for (const char* name : kControllerSpans) {
    calls += spans.count(name);
    controller_s += spans.seconds(name);
  }
  const double queries = spans.counter("bench.controller.queries");
  v["controller.calls"] = calls;
  v["controller.queries"] = queries;
  v["controller.lanes_per_call"] = ratio(queries, calls);
  v["controller.s"] = controller_s;
  v["controller.query_us"] = 1e6 * ratio(controller_s, queries);
  v["controller.pct"] = 100.0 * ratio(controller_s, analysis_s);
  v["controller.commands_per_query"] =
      ratio(spans.counter("bench.controller.commands"), queries);

  v["nn.symbolic_s"] = spans.seconds("nn.symbolic_prop");
  v["nn.zonotope_s"] = spans.seconds("nn.zonotope");
  v["nn.argmin_s"] = spans.seconds("nn.argmin");
  v["nn.relaxed_relus"] = spans.counter("nn.relaxed_relus");
  nncs::NnQueryCache::Stats cache;
  if (const nncs::NnQueryCache* c = setup.system.controller->query_cache()) {
    cache = c->stats();
  }
  v["nn.cache.hits"] = static_cast<double>(cache.hits);
  v["nn.cache.misses"] = static_cast<double>(cache.misses);
  v["nn.cache.hit_ratio"] = cache.hit_rate();
  v["nn.cache.evictions"] = static_cast<double>(cache.evictions);
  v["nn.cache.bytes"] = static_cast<double>(cache.bytes);
  v["nn.cache.lookup_s"] = spans.seconds("nn.cache.lookup");

  constexpr const char* kSpecSpans[] = {"bench.specs.possibly_intersects",
                                        "bench.specs.certainly_contains",
                                        "bench.specs.contains_point"};
  double checks = 0.0;
  double specs_s = 0.0;
  for (const char* name : kSpecSpans) {
    checks += spans.count(name);
    specs_s += spans.seconds(name);
  }
  v["specs.checks"] = checks;
  v["specs.s"] = specs_s;

  v["obs.trace_overhead_pct"] = 100.0 * (ratio(run.wall_s, run.untraced_wall_s) - 1.0);

  std::vector<Metric> out;
  for (const Column& c : kColumns) {
    const auto it = v.find(c.name);
    if (it == v.end()) {
      throw std::logic_error(std::string("perfbench: no value for layer metric ") + c.name);
    }
    out.push_back(Metric{c.name, c.unit, it->second});
  }
  if (out.size() != v.size()) {
    throw std::logic_error("perfbench: layer metric computed but not listed");
  }
  return out;
}

}  // namespace perfbench
