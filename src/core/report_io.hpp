#pragma once

#include <filesystem>
#include <iosfwd>

#include "core/engine.hpp"
#include "core/verifier.hpp"

namespace nncs {

/// CSV serialization of verification reports, so long verification runs can
/// be archived, diffed and re-plotted without re-running (the figure
/// benches cache their runs through this).
///
/// Format (`nncs-report v3`): one header line
///   `nncs-report v3,<root_cells>,<coverage>,<seconds>,<d0>,<d1>,...`
/// then the refined-away cells' summed stats (`VerifyReport::interior_stats`,
/// the checkpoint's row)
///   `interior,<steps>,<joins>,<max_states>,<sims>,<s>,<sim_s>,<ctrl_s>,<join_s>,<check_s>`
/// then one line per terminal leaf:
///   root_index,depth,outcome,seconds,steps,joins,max_states,
///   total_simulations,simulate_s,controller_s,join_s,check_s,
///   command,box_lo0,box_hi0,...
/// Values round-trip via max_digits10, so a loaded report aggregates
/// (`aggregate_stats`) exactly like the report that was saved. Other
/// versions are refused.

void save_report(const VerifyReport& report, std::ostream& os);
void save_report(const VerifyReport& report, const std::filesystem::path& path);

class ReportFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a report previously written by `save_report`. Throws
/// `ReportFormatError` on malformed input.
VerifyReport load_report(std::istream& is);
VerifyReport load_report(const std::filesystem::path& path);

/// Checkpoint serialization (`nncs-checkpoint v2`): an interrupted engine
/// run's completed leaves, interior-cell stats and unfinished frontier, so
/// hours of verification survive a deadline or SIGKILL. Layout:
///   `nncs-checkpoint v2,<root_cells>,<scenario>,<fingerprint>`
/// (v1 headers — `nncs-checkpoint v1,<root_cells>` — are still written when
/// no scenario stamp is set, and still loaded, with both fields empty)
///   `interior,<steps>,<joins>,<max_states>,<sims>,<s>,<sim_s>,<ctrl_s>,<join_s>,<check_s>`
///   `leaves,<count>` then `count` leaf rows (the report's leaf format)
///   `frontier,<count>` then `count` rows `root_index,depth,command,lo0,hi0,...`
/// Values round-trip via max_digits10; resuming from a loaded checkpoint
/// reproduces the uninterrupted run's report exactly (up to timing).
void save_checkpoint(const EngineCheckpoint& checkpoint, std::ostream& os);
void save_checkpoint(const EngineCheckpoint& checkpoint, const std::filesystem::path& path);

/// Parse a checkpoint written by `save_checkpoint`. Throws
/// `ReportFormatError` on malformed input.
EngineCheckpoint load_checkpoint(std::istream& is);
EngineCheckpoint load_checkpoint(const std::filesystem::path& path);

}  // namespace nncs
