#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace nncs::obs {

/// One completed span ("X" phase event in the Chrome trace-event format).
/// `name` and the arg keys must be string literals (or otherwise outlive the
/// recorder) — events never copy strings, so recording stays allocation-free
/// apart from amortized buffer growth.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  const char* arg_key0 = nullptr;
  std::int64_t arg_val0 = 0;
  const char* arg_key1 = nullptr;
  std::int64_t arg_val1 = 0;
};

/// A recorded event together with the worker track it was recorded on.
struct TrackedTraceEvent {
  std::uint32_t tid = 0;
  TraceEvent event;
};

/// Process-wide recorder producing chrome://tracing / Perfetto-compatible
/// JSON. Each recording thread appends to its own buffer (one track per
/// engine worker); buffers are owned by the recorder so events survive worker
/// shutdown, and write_json() merges them time-sorted.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Discard previous events and start recording.
  void start();
  void stop();
  [[nodiscard]] bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Monotonic nanoseconds since process start (the trace time base).
  static std::uint64_t now_ns();

  /// Append a completed span to the calling thread's track. No-op unless
  /// active.
  void record(const TraceEvent& event);

  [[nodiscard]] std::size_t event_count() const;

  /// Emit the Chrome trace-event JSON document ({"traceEvents": [...]}).
  void write_json(std::ostream& os) const;
  void write_json(const std::filesystem::path& path) const;

  /// Snapshot of every recorded event with its track id, time-sorted per
  /// track (recording order). Feeds the span self-profile (obs/profile.hpp).
  [[nodiscard]] std::vector<TrackedTraceEvent> events() const;

 private:
  TraceRecorder() = default;
  struct Impl;
  Impl& impl() const;
  std::atomic<bool> active_{false};
};

}  // namespace nncs::obs
