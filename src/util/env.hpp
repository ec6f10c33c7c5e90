#pragma once

#include <cstddef>
#include <string>

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

/// Path-valued variable (e.g. `NNCS_METRICS_OUT`). Returns the raw value,
/// or the empty string when unset/empty (callers treat empty as "off").
std::string env_path(const char* name);

/// Positive seconds value (e.g. `NNCS_TIME_BUDGET`). Unset, empty,
/// unparsable or non-positive values fall back to `default_value` — same
/// forgiving handling as env_scale().
double env_seconds(const char* name, double default_value = 0.0);

}  // namespace nncs
