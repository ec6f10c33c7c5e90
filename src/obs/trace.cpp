#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/json.hpp"
#include "util/atomic_file.hpp"

namespace nncs::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Process start reference so trace timestamps begin near zero.
const std::uint64_t kEpochNs = steady_ns();

}  // namespace

std::uint64_t TraceRecorder::now_ns() { return steady_ns() - kEpochNs; }

struct TraceRecorder::Impl {
  struct Track {
    std::uint32_t tid;
    std::vector<TraceEvent> events;
  };

  std::mutex mutex;
  /// deque: Track addresses stay stable as threads register.
  std::deque<Track> tracks;
  std::uint64_t generation = 0;

  Track& track_for_this_thread() {
    // Cache the per-generation track so one mutex acquisition per thread per
    // recording session is all the registration costs.
    thread_local Track* cached = nullptr;
    thread_local std::uint64_t cached_generation = ~std::uint64_t{0};
    std::uint64_t gen;
    {
      std::lock_guard lock(mutex);
      gen = generation;
      if (cached != nullptr && cached_generation == gen) {
        return *cached;
      }
      tracks.push_back(Track{static_cast<std::uint32_t>(tracks.size() + 1), {}});
      tracks.back().events.reserve(1024);
      cached = &tracks.back();
      cached_generation = gen;
      return *cached;
    }
  }
};

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl i;
  return i;
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::start() {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  i.tracks.clear();
  ++i.generation;
  active_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::stop() { active_.store(false, std::memory_order_relaxed); }

void TraceRecorder::record(const TraceEvent& event) {
  if (!active()) {
    return;
  }
  impl().track_for_this_thread().events.push_back(event);
}

std::vector<TrackedTraceEvent> TraceRecorder::events() const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  std::vector<TrackedTraceEvent> out;
  for (const auto& track : i.tracks) {
    for (const auto& e : track.events) {
      out.push_back(TrackedTraceEvent{track.tid, e});
    }
  }
  return out;
}

std::size_t TraceRecorder::event_count() const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  std::size_t n = 0;
  for (const auto& track : i.tracks) {
    n += track.events.size();
  }
  return n;
}

void TraceRecorder::write_json(std::ostream& os) const {
  Impl& i = impl();
  // Snapshot under the lock; recording should be stopped before writing, but
  // copying keeps a forgotten stop() merely racy-in-content, not unsafe.
  std::vector<std::pair<std::uint32_t, TraceEvent>> events;
  std::size_t track_count = 0;
  {
    std::lock_guard lock(i.mutex);
    track_count = i.tracks.size();
    for (const auto& track : i.tracks) {
      for (const auto& e : track.events) {
        events.emplace_back(track.tid, e);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.second.start_ns < b.second.start_ns;
  });

  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t tid = 1; tid <= track_count; ++tid) {
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", std::int64_t{1})
        .field("tid", static_cast<std::int64_t>(tid))
        .key("args")
        .begin_object()
        .field("name", "worker-" + std::to_string(tid))
        .end_object()
        .end_object();
  }
  for (const auto& [tid, e] : events) {
    w.begin_object()
        .field("name", e.name)
        .field("cat", "nncs")
        .field("ph", "X")
        .field("ts", static_cast<double>(e.start_ns) * 1e-3)
        .field("dur", static_cast<double>(e.duration_ns) * 1e-3)
        .field("pid", std::int64_t{1})
        .field("tid", static_cast<std::int64_t>(tid));
    if (e.arg_key0 != nullptr || e.arg_key1 != nullptr) {
      w.key("args").begin_object();
      if (e.arg_key0 != nullptr) {
        w.field(e.arg_key0, e.arg_val0);
      }
      if (e.arg_key1 != nullptr) {
        w.field(e.arg_key1, e.arg_val1);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

void TraceRecorder::write_json(const std::filesystem::path& path) const {
  write_file_atomically(path, "trace", [this](std::ostream& os) { write_json(os); });
}

}  // namespace nncs::obs
