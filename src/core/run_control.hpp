#pragma once

#include <atomic>
#include <chrono>
#include <csignal>

namespace nncs {

/// Shared cancellation state for one verification run, threaded through
/// every layer of the engine: the driver polls it between queue pops, and
/// `reach_analyze` polls it between control steps so a deadline can cut
/// even a single slow cell. A run stops when any of three conditions
/// holds:
///   - `request_stop()` was called (stop-on-violation, programmatic abort),
///   - a bound signal flag is set (the CLI's SIGINT handler), or
///   - the deadline passed (`--time-budget`).
///
/// All checks are wait-free; `stopped()` is cheap enough to call once per
/// control step. The object must outlive the run it controls.
class RunControl {
 public:
  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  void request_stop() { stop_.store(true, std::memory_order_release); }

  /// Absolute cutoff on the steady clock; a run past it reports stopped.
  void set_deadline(std::chrono::steady_clock::time_point when) {
    deadline_.store(when.time_since_epoch().count(), std::memory_order_release);
  }

  /// Deadline `seconds` from now. Non-positive budgets stop immediately.
  void set_time_budget(double seconds) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds)));
  }

  /// Watch an async-signal-safe flag (set from a SIGINT handler). The flag
  /// must outlive the control; pass nullptr to unbind.
  void bind_signal_flag(const volatile std::sig_atomic_t* flag) { signal_flag_ = flag; }

  /// True once the run should wind down: explicit stop, bound signal, or
  /// deadline passed.
  [[nodiscard]] bool stopped() const {
    if (stop_.load(std::memory_order_acquire)) {
      return true;
    }
    if (signal_flag_ != nullptr && *signal_flag_ != 0) {
      return true;
    }
    const auto deadline = deadline_.load(std::memory_order_acquire);
    return deadline != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= deadline;
  }

 private:
  std::atomic<bool> stop_{false};
  /// steady_clock ticks since epoch; 0 = no deadline.
  std::atomic<std::chrono::steady_clock::rep> deadline_{0};
  const volatile std::sig_atomic_t* signal_flag_ = nullptr;
};

}  // namespace nncs
