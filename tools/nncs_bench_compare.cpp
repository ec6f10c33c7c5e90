// Regression gate over "nncs-bench v2" perf artifacts: diff a
// baseline artifact against a fresh one, print a human delta table plus
// optional machine JSON, and exit nonzero when something drifted.
//
//   nncs_bench_compare [options] BASELINE CURRENT
//   nncs_bench_compare [options] --baseline-dir DIR CURRENT...
//
// In --baseline-dir mode each CURRENT file is compared against the file of
// the same name inside DIR (the committed bench/baselines/ layout).
//
// Exit codes:
//   0  clean (all canonical values equal, wall clock within tolerance)
//   1  wall-clock regression (> --max-regress percent on a gated row)
//   2  canonical mismatch / missing metric / bench-identity error
//      (dominates 1: a correctness drift makes the perf delta meaningless)
//   3  I/O or parse error
//   4  usage error

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/artifact.hpp"
#include "util/table.hpp"

namespace {

using namespace nncs;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-regress PCT] [--min-wall-seconds S] [--json FILE]\n"
               "          [--quiet] BASELINE CURRENT\n"
               "       %s [options] --baseline-dir DIR CURRENT...\n"
               "\n"
               "Diffs nncs-bench artifacts: canonical results/counters must match\n"
               "exactly, wall-clock rows may regress by at most PCT%% (default 25;\n"
               "rows with baseline < S seconds, default 0.01, are never gated).\n"
               "--json appends one 'nncs-bench-compare v1' JSON line per pair.\n"
               "exit: 0 clean, 1 wall regression, 2 canonical mismatch, 3 I/O, 4 usage\n",
               argv0, argv0);
  std::exit(4);
}

double parse_number(const char* argv0, const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0.0)) {
    std::fprintf(stderr, "%s: %s expects a nonnegative number, got '%s'\n", argv0, flag, text);
    std::exit(4);
  }
  return value;
}

const char* kind_name(obs::CompareRow::Kind kind) {
  switch (kind) {
    case obs::CompareRow::Kind::kCanonical:
      return "canonical";
    case obs::CompareRow::Kind::kCounter:
      return "counter";
    case obs::CompareRow::Kind::kWall:
      return "wall";
  }
  return "?";
}

void print_report(const std::filesystem::path& baseline_path,
                  const std::filesystem::path& current_path, const obs::CompareReport& report,
                  const obs::CompareOptions& options, bool quiet) {
  std::printf("comparing %s (baseline) vs %s  [gate: >%.1f%% on wall rows >= %.3fs]\n",
              baseline_path.string().c_str(), current_path.string().c_str(),
              options.max_regress_percent, options.min_wall_seconds);
  for (const std::string& e : report.identity_errors) {
    std::printf("  identity: %s\n", e.c_str());
  }
  if (!quiet) {
    Table table("bench_compare",
                {"metric", "kind", "status", "baseline", "current", "delta_pct", "gated"});
    for (const obs::CompareRow& row : report.rows) {
      table.add_row({row.metric, kind_name(row.kind), obs::to_string(row.status),
                     Table::num(row.baseline), Table::num(row.current),
                     Table::num(row.delta_percent, 3), row.gated ? "yes" : "no"});
    }
    table.print(std::cout);
  } else {
    // Quiet mode still surfaces every problem row — it only drops the bulk
    // of in-tolerance rows.
    for (const obs::CompareRow& row : report.rows) {
      if (row.status == obs::CompareRow::Status::kOk ||
          row.status == obs::CompareRow::Status::kNew) {
        continue;
      }
      std::printf("  %-10s %-40s baseline %g current %g (%+.2f%%)\n",
                  obs::to_string(row.status), row.metric.c_str(), row.baseline, row.current,
                  row.delta_percent);
    }
  }
  const int code = report.exit_code();
  std::printf("%s: %s\n", current_path.string().c_str(),
              code == 0 ? "clean" : (code == 1 ? "WALL-CLOCK REGRESSION" : "CANONICAL MISMATCH"));
}

}  // namespace

int main(int argc, char** argv) {
  obs::CompareOptions options;
  std::string baseline_dir;
  std::string json_path;
  bool quiet = false;
  std::vector<std::filesystem::path> positional;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(argv[0]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--max-regress")) {
      options.max_regress_percent = parse_number(argv[0], arg, need_value(i));
    } else if (!std::strcmp(arg, "--min-wall-seconds")) {
      options.min_wall_seconds = parse_number(argv[0], arg, need_value(i));
    } else if (!std::strcmp(arg, "--baseline-dir")) {
      baseline_dir = need_value(i);
    } else if (!std::strcmp(arg, "--json")) {
      json_path = need_value(i);
    } else if (!std::strcmp(arg, "--quiet")) {
      quiet = true;
    } else if (arg[0] == '-' && arg[1] == '-') {
      usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }

  std::vector<std::pair<std::filesystem::path, std::filesystem::path>> pairs;
  if (baseline_dir.empty()) {
    if (positional.size() != 2) {
      usage(argv[0]);
    }
    pairs.emplace_back(positional[0], positional[1]);
  } else {
    if (positional.empty()) {
      usage(argv[0]);
    }
    for (const std::filesystem::path& current : positional) {
      pairs.emplace_back(std::filesystem::path{baseline_dir} / current.filename(), current);
    }
  }

  std::ofstream json_out;
  if (!json_path.empty()) {
    json_out.open(json_path, std::ios::trunc);
    if (!json_out) {
      std::fprintf(stderr, "%s: cannot open for writing: %s\n", argv[0], json_path.c_str());
      return 3;
    }
  }

  int exit_code = 0;
  for (const auto& [baseline_path, current_path] : pairs) {
    obs::BenchArtifact baseline;
    obs::BenchArtifact current;
    try {
      baseline = obs::load_artifact(baseline_path);
      current = obs::load_artifact(current_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 3;
    }
    const obs::CompareReport report = obs::compare_artifacts(baseline, current, options);
    print_report(baseline_path, current_path, report, options, quiet);
    if (json_out.is_open()) {
      obs::write_compare_report(report, options, json_out);
    }
    exit_code = std::max(exit_code, report.exit_code());
  }
  if (json_out.is_open() && !json_out) {
    std::fprintf(stderr, "%s: stream failure while writing: %s\n", argv[0], json_path.c_str());
    return 3;
  }
  return exit_code;
}
