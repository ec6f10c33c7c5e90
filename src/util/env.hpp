#pragma once

#include <cstddef>

namespace nncs {

/// Benchmark scale factor from the `NNCS_SCALE` environment variable
/// (default 1.0). Values > 1 enlarge partitions / training budgets toward
/// paper scale; values < 1 shrink them for quick smoke runs.
double env_scale();

/// Worker count from `NNCS_THREADS`, defaulting to the hardware concurrency
/// (at least 1).
std::size_t env_threads();

/// Boolean flag from the named environment variable (e.g. `NNCS_TRACE`).
/// "1", "true", "yes", "on" (case-insensitive) are true; unset, empty or
/// anything else falls back to `default_value` — same forgiving default
/// handling as env_scale().
bool env_flag(const char* name, bool default_value = false);

}  // namespace nncs
