/// Validates the observability file formats the stack emits, for ctest / CI
/// smoke checks. Three modes:
///
///   nncs_trace_check FILE [--min-spans N] [--min-tracks N]
///       Trace-event JSON from `--trace-out` (or any chrome://tracing
///       producer): parses, has a `traceEvents` array, and the complete
///       ("X" phase) events cover at least N distinct span names across at
///       least N distinct thread tracks.
///
///   nncs_trace_check --artifact FILE
///       "nncs-bench v2" perf artifact: parses, and passes the schema
///       validation (provenance stamp present, quantiles ordered, ...).
///
///   nncs_trace_check --heartbeat FILE [--min-lines N]
///       NDJSON heartbeat stream from `--progress-json`: every line parses,
///       carries schema "nncs-heartbeat v1" with strictly increasing `seq`,
///       and the last line is stamped `final` with a stop_reason.
///
/// Exit 0 on success, 1 on any violation, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/artifact.hpp"
#include "obs/json.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--min-spans N] [--min-tracks N]\n"
               "       %s --artifact FILE\n"
               "       %s --heartbeat FILE [--min-lines N]\n",
               argv0, argv0, argv0);
  std::exit(2);
}

int check_artifact(const std::string& file) {
  nncs::obs::BenchArtifact artifact;
  try {
    artifact = nncs::obs::load_artifact(file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nncs_trace_check: %s\n", e.what());
    return 1;
  }
  const std::vector<std::string> problems = nncs::obs::validate_artifact(artifact);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "nncs_trace_check: %s: %s\n", file.c_str(), p.c_str());
  }
  if (!problems.empty()) {
    return 1;
  }
  std::printf(
      "nncs_trace_check: %s: valid nncs-bench v2 artifact (bench %s, %zu canonical results, "
      "%zu canonical counters, %zu phase histograms)\n",
      file.c_str(), artifact.bench.c_str(),
      artifact.canonical_results.size(), artifact.canonical_counters.size(),
      artifact.phases.size());
  return 0;
}

int check_heartbeat(const std::string& file, std::size_t min_lines) {
  using nncs::obs::JsonValue;
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "nncs_trace_check: cannot open %s\n", file.c_str());
    return 1;
  }
  std::string line;
  std::size_t lines = 0;
  std::uint64_t last_seq = 0;
  bool last_final = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    JsonValue root;
    try {
      root = nncs::obs::json_parse(line);
    } catch (const nncs::obs::JsonParseError& e) {
      std::fprintf(stderr, "nncs_trace_check: %s line %zu: invalid JSON: %s\n", file.c_str(),
                   lines + 1, e.what());
      return 1;
    }
    if (!root.is_object()) {
      std::fprintf(stderr, "nncs_trace_check: %s line %zu: not an object\n", file.c_str(),
                   lines + 1);
      return 1;
    }
    const JsonValue* schema = root.find("schema");
    if (schema == nullptr || !schema->is_string() || schema->string != "nncs-heartbeat v1") {
      std::fprintf(stderr, "nncs_trace_check: %s line %zu: missing/unknown schema\n",
                   file.c_str(), lines + 1);
      return 1;
    }
    const JsonValue* seq = root.find("seq");
    if (seq == nullptr || !seq->is_number()) {
      std::fprintf(stderr, "nncs_trace_check: %s line %zu: missing seq\n", file.c_str(),
                   lines + 1);
      return 1;
    }
    const auto this_seq = static_cast<std::uint64_t>(seq->number);
    if (lines > 0 && this_seq <= last_seq) {
      std::fprintf(stderr,
                   "nncs_trace_check: %s line %zu: seq not increasing (%llu after %llu)\n",
                   file.c_str(), lines + 1, static_cast<unsigned long long>(this_seq),
                   static_cast<unsigned long long>(last_seq));
      return 1;
    }
    for (const char* field : {"elapsed_s", "cells_done", "queue_depth"}) {
      const JsonValue* v = root.find(field);
      if (v == nullptr || !v->is_number()) {
        std::fprintf(stderr, "nncs_trace_check: %s line %zu: missing %s\n", file.c_str(),
                     lines + 1, field);
        return 1;
      }
    }
    const JsonValue* final_flag = root.find("final");
    last_final = final_flag != nullptr && final_flag->boolean;
    if (last_final) {
      const JsonValue* reason = root.find("stop_reason");
      if (reason == nullptr || !reason->is_string() || reason->string.empty()) {
        std::fprintf(stderr, "nncs_trace_check: %s line %zu: final line missing stop_reason\n",
                     file.c_str(), lines + 1);
        return 1;
      }
    }
    last_seq = this_seq;
    ++lines;
  }
  if (lines < min_lines) {
    std::fprintf(stderr, "nncs_trace_check: FAIL: %zu heartbeat lines < required %zu\n", lines,
                 min_lines);
    return 1;
  }
  if (lines > 0 && !last_final) {
    std::fprintf(stderr, "nncs_trace_check: FAIL: last heartbeat line is not final\n");
    return 1;
  }
  std::printf("nncs_trace_check: %s: %zu heartbeat lines, final seq %llu\n", file.c_str(),
              lines, static_cast<unsigned long long>(last_seq));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using nncs::obs::JsonValue;

  std::string file;
  std::size_t min_spans = 1;
  std::size_t min_tracks = 1;
  std::size_t min_lines = 1;
  bool artifact_mode = false;
  bool heartbeat_mode = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--min-spans") && i + 1 < argc) {
      min_spans = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(arg, "--min-tracks") && i + 1 < argc) {
      min_tracks = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(arg, "--min-lines") && i + 1 < argc) {
      min_lines = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(arg, "--artifact")) {
      artifact_mode = true;
    } else if (!std::strcmp(arg, "--heartbeat")) {
      heartbeat_mode = true;
    } else if (arg[0] == '-') {
      usage(argv[0]);
    } else if (file.empty()) {
      file = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (file.empty() || (artifact_mode && heartbeat_mode)) {
    usage(argv[0]);
  }
  if (artifact_mode) {
    return check_artifact(file);
  }
  if (heartbeat_mode) {
    return check_heartbeat(file, min_lines);
  }

  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "nncs_trace_check: cannot open %s\n", file.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue root;
  try {
    root = nncs::obs::json_parse(buffer.str());
  } catch (const nncs::obs::JsonParseError& e) {
    std::fprintf(stderr, "nncs_trace_check: %s: invalid JSON: %s\n", file.c_str(), e.what());
    return 1;
  }
  if (!root.is_object()) {
    std::fprintf(stderr, "nncs_trace_check: %s: top level is not an object\n", file.c_str());
    return 1;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "nncs_trace_check: %s: missing traceEvents array\n", file.c_str());
    return 1;
  }

  std::set<std::string> span_names;
  std::set<double> tids;
  std::size_t complete_events = 0;
  for (const JsonValue& e : events->array) {
    if (!e.is_object()) {
      std::fprintf(stderr, "nncs_trace_check: %s: non-object trace event\n", file.c_str());
      return 1;
    }
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    const JsonValue* tid = e.find("tid");
    if (ph == nullptr || !ph->is_string() || name == nullptr || !name->is_string()) {
      std::fprintf(stderr, "nncs_trace_check: %s: event missing ph/name\n", file.c_str());
      return 1;
    }
    if (ph->string != "X") {
      continue;
    }
    if (tid == nullptr || !tid->is_number() || e.find("ts") == nullptr ||
        e.find("dur") == nullptr) {
      std::fprintf(stderr, "nncs_trace_check: %s: complete event missing tid/ts/dur\n",
                   file.c_str());
      return 1;
    }
    ++complete_events;
    span_names.insert(name->string);
    tids.insert(tid->number);
  }

  std::printf("nncs_trace_check: %s: %zu complete events, %zu span names, %zu tracks\n",
              file.c_str(), complete_events, span_names.size(), tids.size());
  if (span_names.size() < min_spans) {
    std::fprintf(stderr, "nncs_trace_check: FAIL: %zu span names < required %zu\n",
                 span_names.size(), min_spans);
    return 1;
  }
  if (tids.size() < min_tracks) {
    std::fprintf(stderr, "nncs_trace_check: FAIL: %zu tracks < required %zu\n", tids.size(),
                 min_tracks);
    return 1;
  }
  return 0;
}
