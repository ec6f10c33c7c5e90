#include "obs/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/atomic_file.hpp"

namespace nncs::obs {

namespace {

constexpr std::string_view kSchemaV2 = "nncs-bench v2";

/// Counters that are deterministic for a fixed workload regardless of
/// thread count or scheduling: the engine.cells_* refinement tree (the
/// engine sorts leaves into a canonical order; counts are order-free) and
/// the integrator, NN and join work, sums of per-cell work no other cell
/// influences. engine.cells_cancelled is excluded: it depends on where a
/// time budget landed. With the containment NN cache on, what a query
/// reuses depends on scheduling, so such runs' counts vary.
constexpr std::string_view kCanonicalCounters[] = {
    "engine.cells_done",         "engine.cells_proved",        "engine.cells_failed",
    "engine.cells_refined",      "engine.stalled_splits",      "ode.substeps",
    "ode.enclosure_attempts",    "ode.picard_retries",         "ode.picard_failures",
    "ode.step_rejections",       "ode.field_evals",            "ode.series_terms",
    "ode.affine_boxed_fallbacks", "ode.affine_dim_fallbacks",  "ode.affine_tail_fallbacks",
    "nn.relaxed_relus",          "nn.relational_steps",        "nn.crossed_bounds",
    "nn.symbolic_macs",          "nn.zonotope_macs",           "join.joins",
    "join.distance_evals",       "core.join_relational_drops",
};

double number_or(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string string_or(const JsonValue* v, std::string fallback) {
  return v != nullptr && v->is_string() ? v->string : std::move(fallback);
}

void parse_number_map(const JsonValue* obj, std::map<std::string, double>& out) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  for (const auto& [name, value] : obj->object) {
    if (value.is_number()) {
      out[name] = value.number;
    }
  }
}

void parse_provenance(const JsonValue* obj, Provenance& p) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  p.git_sha = string_or(obj->find("git_sha"), "");
  p.build_type = string_or(obj->find("build_type"), "");
  p.compiler = string_or(obj->find("compiler"), "");
  p.compiler_flags = string_or(obj->find("compiler_flags"), "");
  p.cpu_model = string_or(obj->find("cpu_model"), "");
  p.cpu_cores = static_cast<std::size_t>(number_or(obj->find("cpu_cores"), 0.0));
  p.scenario = string_or(obj->find("scenario"), "");
  p.scenario_fingerprint = string_or(obj->find("scenario_fingerprint"), "");
  p.nncs_scale = number_or(obj->find("nncs_scale"), 1.0);
  p.nncs_threads = static_cast<std::size_t>(number_or(obj->find("nncs_threads"), 1.0));
  const JsonValue* telemetry = obj->find("telemetry_enabled");
  p.telemetry_enabled = telemetry != nullptr && telemetry->boolean;
}

void parse_histograms(const JsonValue* obj, std::vector<HistogramSnapshot>& out) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  for (const auto& [name, h] : obj->object) {
    if (!h.is_object()) {
      continue;
    }
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = static_cast<std::uint64_t>(number_or(h.find("count"), 0.0));
    snap.total_seconds = number_or(h.find("total_s"), 0.0);
    snap.min_seconds = number_or(h.find("min_s"), 0.0);
    snap.max_seconds = number_or(h.find("max_s"), 0.0);
    snap.p50_seconds = number_or(h.find("p50_s"), 0.0);
    snap.p90_seconds = number_or(h.find("p90_s"), 0.0);
    snap.p99_seconds = number_or(h.find("p99_s"), 0.0);
    out.push_back(std::move(snap));
  }
}

void parse_metrics(const JsonValue* obj, BenchArtifact& artifact) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  if (const JsonValue* counters = obj->find("counters"); counters && counters->is_object()) {
    for (const auto& [name, value] : counters->object) {
      if (value.is_number()) {
        artifact.counters[name] = static_cast<std::uint64_t>(value.number);
      }
    }
  }
  if (const JsonValue* gauges = obj->find("gauges"); gauges && gauges->is_object()) {
    for (const auto& [name, value] : gauges->object) {
      if (value.is_number()) {
        artifact.gauges[name] = static_cast<std::int64_t>(value.number);
      }
    }
  }
  parse_histograms(obj->find("histograms"), artifact.phases);
}

}  // namespace

bool is_canonical_counter(std::string_view name) {
  return std::find(std::begin(kCanonicalCounters), std::end(kCanonicalCounters), name) !=
         std::end(kCanonicalCounters);
}

void fill_artifact_metrics(BenchArtifact& artifact, const MetricsSnapshot& snap) {
  for (const auto& c : snap.counters) {
    artifact.counters[c.name] = c.value;
    // A counter stays registered at zero after `Registry::reset`, so a zero
    // is left out: the canonical keys do not depend on what ran before.
    if (c.value != 0 && is_canonical_counter(c.name)) {
      artifact.canonical_counters[c.name] = c.value;
    }
  }
  for (const auto& g : snap.gauges) {
    artifact.gauges[g.name] = g.value;
  }
  artifact.phases = snap.histograms;
  std::sort(artifact.phases.begin(), artifact.phases.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) { return a.name < b.name; });
}

void write_artifact(const BenchArtifact& artifact, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", kSchemaV2);
  w.field("bench", artifact.bench);
  w.key("provenance");
  write_provenance(w, artifact.provenance);
  w.key("scale").begin_object();
  for (const auto& [name, value] : artifact.scale) {
    w.field(name, value);
  }
  w.end_object();

  w.key("canonical").begin_object();
  w.key("results").begin_object();
  for (const auto& [name, value] : artifact.canonical_results) {
    w.field(name, value);
  }
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : artifact.canonical_counters) {
    w.field(name, value);
  }
  w.end_object();
  w.end_object();

  w.key("wall").begin_object();
  w.field("wall_seconds", artifact.wall_seconds);
  w.key("results").begin_object();
  for (const auto& [name, value] : artifact.wall_results) {
    w.field(name, value);
  }
  w.end_object();
  w.key("phases").begin_object();
  for (const auto& h : artifact.phases) {
    w.key(h.name)
        .begin_object()
        .field("count", h.count)
        .field("total_s", h.total_seconds)
        .field("min_s", h.min_seconds)
        .field("max_s", h.max_seconds)
        .field("p50_s", h.p50_seconds)
        .field("p90_s", h.p90_seconds)
        .field("p99_s", h.p99_seconds)
        .end_object();
  }
  w.end_object();
  w.end_object();

  w.key("metrics").begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : artifact.counters) {
    w.field(name, value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : artifact.gauges) {
    w.field(name, value);
  }
  w.end_object();
  w.end_object();
  w.end_object();
  os << '\n';
}

void write_artifact(const BenchArtifact& artifact, const std::filesystem::path& path) {
  write_file_atomically(path, "artifact",
                        [&](std::ostream& os) { write_artifact(artifact, os); });
}

BenchArtifact parse_artifact(std::string_view json) {
  JsonValue root;
  try {
    root = json_parse(json);
  } catch (const JsonParseError& e) {
    throw std::runtime_error(std::string{"artifact: invalid JSON: "} + e.what());
  }
  if (!root.is_object()) {
    throw std::runtime_error("artifact: top level is not an object");
  }
  const std::string schema = string_or(root.find("schema"), "");
  if (schema != kSchemaV2) {
    throw std::runtime_error("artifact: unsupported schema '" + schema +
                             "' (expected 'nncs-bench v2')");
  }
  BenchArtifact artifact;
  artifact.bench = string_or(root.find("bench"), "");
  parse_provenance(root.find("provenance"), artifact.provenance);
  parse_number_map(root.find("scale"), artifact.scale);
  if (const JsonValue* canonical = root.find("canonical"); canonical && canonical->is_object()) {
    parse_number_map(canonical->find("results"), artifact.canonical_results);
    if (const JsonValue* counters = canonical->find("counters");
        counters && counters->is_object()) {
      for (const auto& [name, value] : counters->object) {
        if (value.is_number()) {
          artifact.canonical_counters[name] = static_cast<std::uint64_t>(value.number);
        }
      }
    }
  }
  if (const JsonValue* wall = root.find("wall"); wall && wall->is_object()) {
    artifact.wall_seconds = number_or(wall->find("wall_seconds"), 0.0);
    parse_number_map(wall->find("results"), artifact.wall_results);
    parse_histograms(wall->find("phases"), artifact.phases);
  }
  parse_metrics(root.find("metrics"), artifact);
  return artifact;
}

BenchArtifact load_artifact(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("artifact: cannot open: " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_artifact(buffer.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path.string() + ": " + e.what());
  }
}

std::vector<std::string> validate_artifact(const BenchArtifact& artifact) {
  std::vector<std::string> problems;
  if (artifact.bench.empty()) {
    problems.push_back("missing bench name");
  }
  const Provenance& p = artifact.provenance;
  if (p.git_sha.empty()) {
    problems.push_back("provenance: missing git_sha");
  }
  if (p.compiler.empty()) {
    problems.push_back("provenance: missing compiler");
  }
  if (p.cpu_model.empty()) {
    problems.push_back("provenance: missing cpu_model");
  }
  if (p.cpu_cores == 0) {
    problems.push_back("provenance: cpu_cores is 0");
  }
  if (artifact.canonical_results.empty()) {
    problems.push_back("canonical.results is empty");
  }
  if (!(artifact.wall_seconds >= 0.0)) {
    problems.push_back("wall_seconds is negative or NaN");
  }
  for (const HistogramSnapshot& h : artifact.phases) {
    if (h.p50_seconds > h.p90_seconds || h.p90_seconds > h.p99_seconds) {
      problems.push_back("phase " + h.name + ": quantiles out of order (p50 <= p90 <= p99)");
    }
    if (h.count > 0 && h.max_seconds < h.min_seconds) {
      problems.push_back("phase " + h.name + ": max < min");
    }
  }
  return problems;
}

bool CompareReport::regressed() const {
  return std::any_of(rows.begin(), rows.end(), [](const CompareRow& r) {
    return r.status == CompareRow::Status::kRegressed;
  });
}

bool CompareReport::mismatched() const {
  if (!identity_errors.empty()) {
    return true;
  }
  return std::any_of(rows.begin(), rows.end(), [](const CompareRow& r) {
    return r.status == CompareRow::Status::kMismatch || r.status == CompareRow::Status::kMissing;
  });
}

int CompareReport::exit_code() const {
  if (mismatched()) {
    return 2;
  }
  return regressed() ? 1 : 0;
}

namespace {

double percent_delta(double baseline, double current) {
  if (baseline == 0.0) {
    return 0.0;
  }
  return (current - baseline) / baseline * 100.0;
}

/// Exact comparison over the union of two maps (canonical rows).
template <typename Map>
void compare_exact(const Map& baseline, const Map& current, CompareRow::Kind kind,
                   std::vector<CompareRow>& rows) {
  for (const auto& [name, base_value] : baseline) {
    CompareRow row;
    row.metric = name;
    row.kind = kind;
    row.baseline = static_cast<double>(base_value);
    const auto it = current.find(name);
    if (it == current.end()) {
      row.status = CompareRow::Status::kMissing;
    } else {
      row.current = static_cast<double>(it->second);
      row.delta_percent = percent_delta(row.baseline, row.current);
      row.status = base_value == it->second ? CompareRow::Status::kOk
                                            : CompareRow::Status::kMismatch;
    }
    rows.push_back(std::move(row));
  }
  // A canonical key only the current run records is drift too: a run that
  // starts counting work its baseline never saw has changed.
  for (const auto& [name, cur_value] : current) {
    if (baseline.find(name) == baseline.end()) {
      CompareRow row;
      row.metric = name;
      row.kind = kind;
      row.current = static_cast<double>(cur_value);
      row.status = CompareRow::Status::kMismatch;
      rows.push_back(std::move(row));
    }
  }
}

CompareRow compare_wall_row(const std::string& metric, double baseline, double current,
                            const CompareOptions& options) {
  CompareRow row;
  row.metric = metric;
  row.kind = CompareRow::Kind::kWall;
  row.baseline = baseline;
  row.current = current;
  if (baseline <= 0.0) {
    // A zero (or absurd negative) baseline has no meaningful ratio: report
    // the row as new, never gate on it.
    row.status = CompareRow::Status::kNew;
    return row;
  }
  row.delta_percent = percent_delta(baseline, current);
  row.gated = baseline >= options.min_wall_seconds;
  if (row.gated && row.delta_percent > options.max_regress_percent) {
    row.status = CompareRow::Status::kRegressed;
  } else if (row.gated && row.delta_percent < -options.max_regress_percent) {
    row.status = CompareRow::Status::kImproved;
  } else {
    row.status = CompareRow::Status::kOk;
  }
  return row;
}

}  // namespace

CompareReport compare_artifacts(const BenchArtifact& baseline, const BenchArtifact& current,
                                const CompareOptions& options) {
  CompareReport report;
  if (baseline.bench != current.bench) {
    report.identity_errors.push_back("bench name differs: baseline '" + baseline.bench +
                                     "' vs current '" + current.bench + "'");
  }
  for (const auto& [name, base_value] : baseline.scale) {
    const auto it = current.scale.find(name);
    if (it == current.scale.end() || it->second != base_value) {
      std::ostringstream oss;
      oss << "scale." << name << " differs: baseline " << base_value << " vs current "
          << (it == current.scale.end() ? std::string{"<absent>"} : std::to_string(it->second));
      report.identity_errors.push_back(oss.str());
    }
  }

  compare_exact(baseline.canonical_results, current.canonical_results,
                CompareRow::Kind::kCanonical, report.rows);
  compare_exact(baseline.canonical_counters, current.canonical_counters,
                CompareRow::Kind::kCounter, report.rows);

  report.rows.push_back(
      compare_wall_row("wall_seconds", baseline.wall_seconds, current.wall_seconds, options));
  for (const auto& [name, base_value] : baseline.wall_results) {
    const auto it = current.wall_results.find(name);
    if (it == current.wall_results.end()) {
      // Wall metrics are machine-dependent detail; absence is reported as
      // missing (a schema-level drift) but phases may legitimately differ
      // with telemetry off — the caller sees it in the table either way.
      CompareRow row;
      row.metric = name;
      row.kind = CompareRow::Kind::kWall;
      row.baseline = base_value;
      row.status = CompareRow::Status::kMissing;
      report.rows.push_back(std::move(row));
      continue;
    }
    report.rows.push_back(compare_wall_row(name, base_value, it->second, options));
  }
  // Per-phase totals: gate the total_s of each phase histogram present in
  // both artifacts; quantiles ride along as context in the table output.
  for (const HistogramSnapshot& base_phase : baseline.phases) {
    const auto it = std::find_if(
        current.phases.begin(), current.phases.end(),
        [&](const HistogramSnapshot& h) { return h.name == base_phase.name; });
    if (it == current.phases.end()) {
      continue;
    }
    report.rows.push_back(compare_wall_row("phase." + base_phase.name + ".total_s",
                                           base_phase.total_seconds, it->total_seconds,
                                           options));
  }
  return report;
}

const char* to_string(CompareRow::Status status) {
  switch (status) {
    case CompareRow::Status::kOk:
      return "ok";
    case CompareRow::Status::kImproved:
      return "improved";
    case CompareRow::Status::kRegressed:
      return "REGRESSED";
    case CompareRow::Status::kMismatch:
      return "MISMATCH";
    case CompareRow::Status::kMissing:
      return "MISSING";
    case CompareRow::Status::kNew:
      return "new";
  }
  return "?";
}

void write_compare_report(const CompareReport& report, const CompareOptions& options,
                          std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "nncs-bench-compare v1");
  w.field("max_regress_percent", options.max_regress_percent);
  w.field("min_wall_seconds", options.min_wall_seconds);
  w.field("exit_code", static_cast<std::int64_t>(report.exit_code()));
  w.field("regressed", report.regressed());
  w.field("mismatched", report.mismatched());
  w.key("identity_errors").begin_array();
  for (const std::string& e : report.identity_errors) {
    w.value(e);
  }
  w.end_array();
  w.key("rows").begin_array();
  for (const CompareRow& row : report.rows) {
    w.begin_object()
        .field("metric", row.metric)
        .field("kind", row.kind == CompareRow::Kind::kWall
                           ? "wall"
                           : (row.kind == CompareRow::Kind::kCounter ? "counter" : "canonical"))
        .field("status", to_string(row.status))
        .field("baseline", row.baseline)
        .field("current", row.current)
        .field("delta_percent", row.delta_percent)
        .field("gated", row.gated)
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace nncs::obs
