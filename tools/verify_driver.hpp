#pragma once

/// Implementation of the `nncs_verify` command-line driver; see
/// tools/nncs_verify.cpp for the option reference.

namespace nncs::tools {

/// Full CLI main: parse flags, assemble the scenario's closed loop, run the
/// verification engine, emit reports/checkpoints/telemetry. Exit codes:
///   0  run complete (or stopped by --stop-on-violation)
///   3  interrupted by budget/SIGINT (checkpoint written if requested)
///   4  --resume refused: checkpoint from a different scenario or partition
///   1  output write failure
///   2  usage error
int verify_driver_main(int argc, char** argv);

}  // namespace nncs::tools
