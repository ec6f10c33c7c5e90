#include "core/report_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/atomic_file.hpp"

namespace nncs {

namespace {

constexpr const char* kMagicReport = "nncs-report v3";
constexpr const char* kMagicCheckpoint = "nncs-checkpoint v1";
constexpr const char* kMagicCheckpointV2 = "nncs-checkpoint v2";
/// Fixed leaf-row columns before the box lo/hi pairs.
constexpr std::size_t kLeafFixed = 13;

ReachOutcome outcome_from_string(const std::string& name) {
  for (const ReachOutcome o :
       {ReachOutcome::kProvedSafe, ReachOutcome::kErrorReachable,
        ReachOutcome::kHorizonExhausted, ReachOutcome::kEnclosureFailure,
        ReachOutcome::kCancelled}) {
    if (name == to_string(o)) {
      return o;
    }
  }
  throw ReportFormatError("report_io: unknown outcome '" + name + "'");
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ls(line);
  while (std::getline(ls, cell, ',')) {
    cells.push_back(cell);
  }
  return cells;
}

double parse_double(const std::string& s) {
  // Not std::stod: it throws out_of_range on underflow to subnormal, and
  // box bounds near zero legitimately round-trip through subnormal values.
  // strtod returns the correctly rounded subnormal. Every number these
  // formats store is finite, so an overflow to ±HUGE_VAL and the "inf" and
  // "nan" that strtod also takes are malformed.
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw ReportFormatError("report_io: expected a number, got '" + s + "'");
  }
  return v;
}

/// A count: the whole cell is decimal digits, at most `max`. (std::stoull
/// would also take "-1" as 2^64-1, "+4", " 3" and "12abc".)
std::size_t parse_size(const std::string& s,
                       std::size_t max = std::numeric_limits<std::size_t>::max()) {
  std::size_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || stop != end || v > max) {
    throw ReportFormatError("report_io: expected a count, got '" + s + "'");
  }
  return v;
}

/// A count stored in an `int` field (depths, step counts).
int parse_int(const std::string& s) {
  return static_cast<int>(parse_size(s, std::numeric_limits<int>::max()));
}

void write_leaf_row(std::ostream& os, const CellOutcome& leaf) {
  const ReachStats& s = leaf.stats;
  os << leaf.root_index << ',' << leaf.depth << ',' << to_string(leaf.outcome) << ','
     << s.seconds << ',' << s.steps_executed << ',' << s.joins << ',' << s.max_states << ','
     << s.total_simulations << ',' << s.phases.simulate_seconds << ','
     << s.phases.controller_seconds << ',' << s.phases.join_seconds << ','
     << s.phases.check_seconds << ',' << leaf.initial.command;
  for (const auto& iv : leaf.initial.box().intervals()) {
    os << ',' << iv.lo() << ',' << iv.hi();
  }
  os << '\n';
}

Box parse_box(const std::vector<std::string>& cells, std::size_t first) {
  std::vector<Interval> dims;
  dims.reserve((cells.size() - first) / 2);
  for (std::size_t i = first; i < cells.size(); i += 2) {
    dims.emplace_back(parse_double(cells[i]), parse_double(cells[i + 1]));
  }
  return Box{std::move(dims)};
}

CellOutcome parse_leaf_row(const std::string& line) {
  const auto cells = split_csv(line);
  if (cells.size() < kLeafFixed || (cells.size() - kLeafFixed) % 2 != 0) {
    throw ReportFormatError("report_io: malformed leaf row");
  }
  CellOutcome leaf;
  leaf.root_index = parse_size(cells[0]);
  leaf.depth = parse_int(cells[1]);
  leaf.outcome = outcome_from_string(cells[2]);
  leaf.stats.seconds = parse_double(cells[3]);
  leaf.stats.steps_executed = parse_int(cells[4]);
  leaf.stats.joins = parse_size(cells[5]);
  leaf.stats.max_states = parse_size(cells[6]);
  leaf.stats.total_simulations = parse_size(cells[7]);
  leaf.stats.phases.simulate_seconds = parse_double(cells[8]);
  leaf.stats.phases.controller_seconds = parse_double(cells[9]);
  leaf.stats.phases.join_seconds = parse_double(cells[10]);
  leaf.stats.phases.check_seconds = parse_double(cells[11]);
  leaf.initial.command = parse_size(cells[12]);
  leaf.initial.abstract = parse_box(cells, kLeafFixed);
  return leaf;
}

/// The summed stats of the refined-away interior cells, one row in both
/// reports and checkpoints.
void write_interior_row(std::ostream& os, const ReachStats& s) {
  os << "interior," << s.steps_executed << ',' << s.joins << ',' << s.max_states << ','
     << s.total_simulations << ',' << s.seconds << ',' << s.phases.simulate_seconds << ','
     << s.phases.controller_seconds << ',' << s.phases.join_seconds << ','
     << s.phases.check_seconds << '\n';
}

ReachStats parse_interior_row(const std::string& line) {
  const auto cells = split_csv(line);
  if (cells.size() != 10 || cells[0] != "interior") {
    throw ReportFormatError("report_io: malformed interior-stats row");
  }
  ReachStats s;
  s.steps_executed = parse_int(cells[1]);
  s.joins = parse_size(cells[2]);
  s.max_states = parse_size(cells[3]);
  s.total_simulations = parse_size(cells[4]);
  s.seconds = parse_double(cells[5]);
  s.phases.simulate_seconds = parse_double(cells[6]);
  s.phases.controller_seconds = parse_double(cells[7]);
  s.phases.join_seconds = parse_double(cells[8]);
  s.phases.check_seconds = parse_double(cells[9]);
  return s;
}

std::string read_line_or_throw(std::istream& is, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) {
      return line;
    }
  }
  throw ReportFormatError(std::string("report_io: truncated input (expected ") + what + ")");
}

/// Parse a `<tag>,<count>` section header.
std::size_t parse_section(const std::string& line, const char* tag) {
  const auto cells = split_csv(line);
  if (cells.size() != 2 || cells[0] != tag) {
    throw ReportFormatError("report_io: expected '" + std::string(tag) +
                            ",<count>' section, got '" + line + "'");
  }
  return parse_size(cells[1]);
}

}  // namespace

void save_report(const VerifyReport& report, std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kMagicReport << ',' << report.root_cells << ',' << report.coverage_percent << ','
     << report.seconds;
  for (const auto n : report.proved_by_depth) {
    os << ',' << n;
  }
  os << '\n';
  write_interior_row(os, report.interior_stats);
  for (const auto& leaf : report.leaves) {
    write_leaf_row(os, leaf);
  }
  if (!os) {
    throw std::runtime_error("report_io: stream failure while writing report");
  }
}

void save_report(const VerifyReport& report, const std::filesystem::path& path) {
  write_file_atomically(path, "report", [&](std::ostream& os) { save_report(report, os); });
}

VerifyReport load_report(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    throw ReportFormatError("report_io: empty input");
  }
  const auto head_cells = split_csv(header);
  if (head_cells.size() < 4 || head_cells[0] != kMagicReport) {
    throw ReportFormatError("report_io: bad header (not a nncs-report v3 file)");
  }
  VerifyReport report;
  report.root_cells = parse_size(head_cells[1]);
  report.coverage_percent = parse_double(head_cells[2]);
  report.seconds = parse_double(head_cells[3]);
  for (std::size_t i = 4; i < head_cells.size(); ++i) {
    report.proved_by_depth.push_back(parse_size(head_cells[i]));
  }
  report.interior_stats = parse_interior_row(read_line_or_throw(is, "interior stats"));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    CellOutcome leaf = parse_leaf_row(line);
    if (leaf.root_index >= report.root_cells) {
      throw ReportFormatError("report_io: leaf root index out of range");
    }
    if (leaf.outcome == ReachOutcome::kProvedSafe) {
      ++report.proved_leaves;
    } else {
      ++report.failed_leaves;
    }
    report.leaves.push_back(std::move(leaf));
  }
  return report;
}

VerifyReport load_report(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("report_io: cannot open for reading: " + path.string());
  }
  return load_report(in);
}

void save_checkpoint(const EngineCheckpoint& checkpoint, std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  // v2 appends the scenario identity to the header; checkpoints with no
  // scenario stamp (engine-internal, legacy drivers) keep writing v1 so
  // their byte layout is unchanged.
  if (checkpoint.scenario.empty() && checkpoint.fingerprint.empty()) {
    os << kMagicCheckpoint << ',' << checkpoint.root_cells << '\n';
  } else {
    if (checkpoint.scenario.find(',') != std::string::npos ||
        checkpoint.fingerprint.find(',') != std::string::npos) {
      throw std::invalid_argument(
          "report_io: checkpoint scenario/fingerprint must not contain commas");
    }
    os << kMagicCheckpointV2 << ',' << checkpoint.root_cells << ',' << checkpoint.scenario
       << ',' << checkpoint.fingerprint << '\n';
  }
  write_interior_row(os, checkpoint.interior_stats);
  os << "leaves," << checkpoint.leaves.size() << '\n';
  for (const auto& leaf : checkpoint.leaves) {
    write_leaf_row(os, leaf);
  }
  os << "frontier," << checkpoint.frontier.size() << '\n';
  for (const auto& job : checkpoint.frontier) {
    os << job.root_index << ',' << job.depth << ',' << job.cell.command;
    for (const auto& iv : job.cell.box().intervals()) {
      os << ',' << iv.lo() << ',' << iv.hi();
    }
    os << '\n';
  }
  if (!os) {
    throw std::runtime_error("report_io: stream failure while writing checkpoint");
  }
}

void save_checkpoint(const EngineCheckpoint& checkpoint, const std::filesystem::path& path) {
  write_file_atomically(path, "checkpoint",
                        [&](std::ostream& os) { save_checkpoint(checkpoint, os); });
}

EngineCheckpoint load_checkpoint(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    throw ReportFormatError("report_io: empty checkpoint input");
  }
  const auto head_cells = split_csv(header);
  EngineCheckpoint checkpoint;
  if (head_cells.size() == 2 && head_cells[0] == kMagicCheckpoint) {
    // v1: no scenario stamp (accepted; the CLI warns it cannot validate).
  } else if (head_cells.size() == 4 && head_cells[0] == kMagicCheckpointV2) {
    checkpoint.scenario = head_cells[2];
    checkpoint.fingerprint = head_cells[3];
  } else {
    throw ReportFormatError("report_io: bad header (not a nncs-checkpoint v1/v2 file)");
  }
  checkpoint.root_cells = parse_size(head_cells[1]);

  checkpoint.interior_stats = parse_interior_row(read_line_or_throw(is, "interior stats"));

  const std::size_t num_leaves = parse_section(read_line_or_throw(is, "leaves section"), "leaves");
  checkpoint.leaves.reserve(num_leaves);
  for (std::size_t i = 0; i < num_leaves; ++i) {
    checkpoint.leaves.push_back(parse_leaf_row(read_line_or_throw(is, "leaf row")));
  }

  const std::size_t num_jobs =
      parse_section(read_line_or_throw(is, "frontier section"), "frontier");
  checkpoint.frontier.reserve(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    const auto cells = split_csv(read_line_or_throw(is, "frontier row"));
    if (cells.size() < 3 || (cells.size() - 3) % 2 != 0) {
      throw ReportFormatError("report_io: malformed frontier row");
    }
    VerifyJob job;
    job.root_index = parse_size(cells[0]);
    job.depth = parse_int(cells[1]);
    job.cell.command = parse_size(cells[2]);
    job.cell.abstract = parse_box(cells, 3);
    checkpoint.frontier.push_back(std::move(job));
  }
  return checkpoint;
}

EngineCheckpoint load_checkpoint(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("report_io: cannot open for reading: " + path.string());
  }
  return load_checkpoint(in);
}

}  // namespace nncs
