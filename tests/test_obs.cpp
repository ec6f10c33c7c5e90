// Tests for the telemetry layer (src/obs): counter/histogram correctness
// under concurrent writers, trace-event JSON well-formedness, the
// JSON writer/parser pair, and the disabled-mode contract (no recording, no
// allocation).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace nncs::obs {
namespace {

// Global operator new/delete instrumentation for the zero-allocation test.
std::atomic<std::size_t> g_allocations{0};

}  // namespace
}  // namespace nncs::obs

void* operator new(std::size_t size) {
  ++nncs::obs::g_allocations;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

// The nothrow variant must be replaced too: libstdc++'s temporary buffers
// (e.g. stable_sort's) allocate with new(nothrow) but release through
// operator delete. Leaving it to the default (or to ASan's interceptor)
// makes that pairing an alloc-dealloc mismatch under sanitizers.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++nncs::obs::g_allocations;
  return std::malloc(size);
}

// All global operators are replaced, so new's malloc always pairs with
// delete's free — GCC just can't see across the replacement boundary.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace nncs::obs {
namespace {

/// RAII guard: telemetry off + metrics zeroed on both ends, so tests don't
/// leak enabled-state into each other.
struct TelemetryGuard {
  TelemetryGuard() { clean(); }
  ~TelemetryGuard() { clean(); }
  static void clean() {
    set_enabled(false);
    TraceRecorder::instance().stop();
    Registry::instance().reset();
  }
};

TEST(ObsCounter, AddAndMergeOnRead) {
  TelemetryGuard guard;
  set_enabled(true);
  Counter& c = Registry::instance().counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, DisabledAddIsDropped) {
  TelemetryGuard guard;
  Counter& c = Registry::instance().counter("test.disabled");
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  NNCS_COUNT("test.disabled", 9);
  EXPECT_EQ(Registry::instance().snapshot().counter("test.disabled"), 0u);
}

TEST(ObsCounter, ConcurrentAddsAllLand) {
  TelemetryGuard guard;
  set_enabled(true);
  Counter& c = Registry::instance().counter("test.concurrent");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  {
    std::vector<std::jthread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&c] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          c.add();
        }
      });
    }
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, AddSubAndMergeOnRead) {
  TelemetryGuard guard;
  set_enabled(true);
  Gauge& g = Registry::instance().gauge("test.gauge");
  g.add(5);
  g.sub(2);
  g.add(-1);
  EXPECT_EQ(g.value(), 2);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsGauge, DisabledAddIsDropped) {
  TelemetryGuard guard;
  Gauge& g = Registry::instance().gauge("test.gauge.disabled");
  g.add(7);
  EXPECT_EQ(g.value(), 0);
  NNCS_GAUGE_ADD("test.gauge.disabled", 9);
  EXPECT_EQ(Registry::instance().snapshot().gauge("test.gauge.disabled"), 0);
}

TEST(ObsGauge, ConcurrentRaiseAndLowerStaysExact) {
  TelemetryGuard guard;
  set_enabled(true);
  Gauge& g = Registry::instance().gauge("test.gauge.mt");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  // Half the threads raise, half lower from *different* shards: the level
  // must still merge to the exact net.
  {
    std::vector<std::jthread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&g, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          if (t % 2 == 0) {
            g.add(2);
          } else {
            g.sub(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(g.value(),
            static_cast<std::int64_t>(kThreads / 2 * kPerThread * 2 -
                                      kThreads / 2 * kPerThread));
}

TEST(ObsGauge, SnapshotAndLookup) {
  TelemetryGuard guard;
  set_enabled(true);
  Registry::instance().gauge("test.gauge.snap").add(-3);
  const MetricsSnapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.gauge("test.gauge.snap"), -3);
  EXPECT_EQ(snap.gauge("missing"), 0);
}

TEST(ObsHistogram, RecordsCountSumMinMax) {
  TelemetryGuard guard;
  set_enabled(true);
  Histogram& h = Registry::instance().histogram("test.hist");
  h.record_ns(1000);
  h.record_ns(2000);
  h.record_ns(3000);
  const HistogramSnapshot snap = h.snapshot("test.hist");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.total_seconds, 6000e-9);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 1000e-9);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 3000e-9);
  // Quantiles come from log2 bucket upper bounds: within 2x of the truth.
  EXPECT_GE(snap.p50_seconds, 1000e-9);
  EXPECT_LE(snap.p50_seconds, 2 * 2000e-9);
  EXPECT_GE(snap.p99_seconds, snap.p50_seconds);
}

TEST(ObsHistogram, ConcurrentRecordsAllLand) {
  TelemetryGuard guard;
  set_enabled(true);
  Histogram& h = Registry::instance().histogram("test.hist.mt");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  {
    std::vector<std::jthread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&h, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          h.record_ns(100 * (t + 1));
        }
      });
    }
  }
  const HistogramSnapshot snap = h.snapshot("test.hist.mt");
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 100e-9);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 800e-9);
}

TEST(ObsRegistry, SnapshotSortedAndLookups) {
  TelemetryGuard guard;
  set_enabled(true);
  Registry::instance().counter("b.counter").add(2);
  Registry::instance().counter("a.counter").add(1);
  Registry::instance().histogram("z.hist").record_ns(50);
  const MetricsSnapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("a.counter"), 1u);
  EXPECT_EQ(snap.counter("b.counter"), 2u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  ASSERT_NE(snap.histogram("z.hist"), nullptr);
  EXPECT_EQ(snap.histogram("z.hist")->count, 1u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(ObsSpan, RecordsHistogramWhenEnabled) {
  TelemetryGuard guard;
  set_enabled(true);
  {
    NNCS_SPAN("test.span");
  }
  {
    NNCS_SPAN("test.span");
  }
  const MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_NE(snap.histogram("test.span"), nullptr);
  EXPECT_EQ(snap.histogram("test.span")->count, 2u);
}

TEST(ObsSpan, DisabledModeMakesNoAllocations) {
  TelemetryGuard guard;
  // Warm the call site (static SpanSite init) while enabled.
  set_enabled(true);
  {
    NNCS_SPAN("test.noalloc");
    NNCS_COUNT("test.noalloc.count", 1);
  }
  set_enabled(false);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    NNCS_SPAN("test.noalloc");
    NNCS_COUNT("test.noalloc.count", 1);
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(Registry::instance().snapshot().counter("test.noalloc.count"), 1u);
}

TEST(ObsTrace, JsonRoundTripsWithWorkerTracks) {
  TelemetryGuard guard;
  set_enabled(true);
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  constexpr std::size_t kThreads = 4;
  std::atomic<int> barrier{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&barrier] {
        // Hold every worker inside its job so all kThreads record a span.
        ++barrier;
        while (barrier.load() < static_cast<int>(kThreads)) {
        }
        NNCS_SPAN_TAGGED("test.work", "root", 7, "depth", 1);
      });
    }
  }
  {
    NNCS_SPAN("test.main");
  }
  recorder.stop();
  EXPECT_EQ(recorder.event_count(), kThreads + 1);

  std::ostringstream oss;
  recorder.write_json(oss);
  const JsonValue root = json_parse(oss.str());
  ASSERT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> names;
  std::set<double> tids;
  double last_ts = -1.0;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    if (e.find("ph")->string != "X") {
      continue;
    }
    names.insert(e.find("name")->string);
    tids.insert(e.find("tid")->number);
    EXPECT_GE(e.find("ts")->number, last_ts);  // time-sorted
    last_ts = e.find("ts")->number;
  }
  EXPECT_TRUE(names.contains("test.work"));
  EXPECT_TRUE(names.contains("test.main"));
  EXPECT_EQ(tids.size(), kThreads + 1);

  // Tagged args survive serialization.
  bool found_tagged = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* args = e.find("args");
    if (e.find("name")->string == "test.work" && args != nullptr) {
      EXPECT_DOUBLE_EQ(args->find("root")->number, 7.0);
      EXPECT_DOUBLE_EQ(args->find("depth")->number, 1.0);
      found_tagged = true;
    }
  }
  EXPECT_TRUE(found_tagged);
}

TEST(ObsTrace, InactiveRecorderDropsEvents) {
  TelemetryGuard guard;
  set_enabled(true);
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  recorder.stop();
  {
    NNCS_SPAN("test.dropped");
  }
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(ObsJson, WriterEscapesAndNests) {
  std::ostringstream oss;
  JsonWriter w(oss);
  w.begin_object();
  w.field("s", "a\"b\\c\n");
  w.field("n", 1.5);
  w.field("i", std::int64_t{-3});
  w.field("b", true);
  w.key("arr").begin_array().value(std::uint64_t{7}).null().end_array();
  w.end_object();
  const JsonValue v = json_parse(oss.str());
  EXPECT_EQ(v.find("s")->string, "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(v.find("n")->number, 1.5);
  EXPECT_DOUBLE_EQ(v.find("i")->number, -3.0);
  EXPECT_TRUE(v.find("b")->boolean);
  ASSERT_EQ(v.find("arr")->array.size(), 2u);
  EXPECT_EQ(v.find("arr")->array[1].kind, JsonValue::Kind::kNull);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{"), JsonParseError);
  EXPECT_THROW(json_parse("{} trailing"), JsonParseError);
  EXPECT_THROW(json_parse("[1,]"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), JsonParseError);
}

TEST(ObsMetrics, WriteMetricsIncludesGauges) {
  TelemetryGuard guard;
  set_enabled(true);
  Registry::instance().counter("w.counter").add(4);
  Registry::instance().gauge("w.gauge").add(-2);
  std::ostringstream oss;
  JsonWriter w(oss);
  write_metrics(w, Registry::instance().snapshot());
  const JsonValue v = json_parse(oss.str());
  const JsonValue* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("w.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("w.gauge")->number, -2.0);
  ASSERT_NE(v.find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("counters")->find("w.counter")->number, 4.0);
}

TEST(ObsProvenance, CollectAndSerialize) {
  TelemetryGuard guard;
  const Provenance p = collect_provenance();
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.compiler.empty());
  std::ostringstream oss;
  JsonWriter w(oss);
  write_provenance(w, p);
  const JsonValue v = json_parse(oss.str());
  EXPECT_EQ(v.find("git_sha")->string, p.git_sha);
  EXPECT_FALSE(v.find("telemetry_enabled")->boolean);
}

}  // namespace
}  // namespace nncs::obs
