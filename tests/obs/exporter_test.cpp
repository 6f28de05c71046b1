// Streaming span export: ring drain semantics (back-pressure, no loss),
// bounded memory, health instruments, signature parity with retained
// mode, and the ChromeTraceFileSink valid-at-every-flush framing.
#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "test_paths.hpp"

namespace deepcat::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsExporterTest, CallbackSinkReceivesCompletedSpansInOrder) {
  std::vector<SpanRecord> seen;
  CallbackSpanSink sink([&seen](const SpanRecord& s) { seen.push_back(s); });
  LogicalClock clock;
  Tracer tracer(clock, {.exporter = &sink, .ring_capacity = 2});

  const std::uint64_t root = tracer.begin_span("request");
  const std::uint64_t child = tracer.begin_span("session", root);
  tracer.end_span(child);
  tracer.end_span(root);  // second completion fills the ring -> drain
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].name, "session");
  EXPECT_EQ(seen[0].parent, root);
  EXPECT_EQ(seen[1].name, "request");
  EXPECT_EQ(seen[1].parent, 0u);
  EXPECT_LE(seen[0].t0, seen[0].t1);
  EXPECT_EQ(tracer.exported_spans(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(ObsExporterTest, RingDrainBoundsMemoryWithZeroLoss) {
  std::size_t exported = 0;
  CallbackSpanSink sink([&exported](const SpanRecord&) { ++exported; });
  LogicalClock clock;
  constexpr std::size_t kRing = 4;
  Tracer tracer(clock, {.exporter = &sink, .ring_capacity = kRing});

  constexpr std::size_t kSpans = 1000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    const std::uint64_t id = tracer.begin_span("work");
    tracer.end_span(id);
    // Memory stays O(ring + open spans) mid-stream, not O(trace).
    ASSERT_LE(tracer.retained_spans(), kRing);
  }
  tracer.flush_exporter();
  EXPECT_EQ(exported, kSpans);
  EXPECT_EQ(tracer.exported_spans(), kSpans);
  EXPECT_EQ(tracer.span_count(), kSpans);
  EXPECT_EQ(tracer.dropped_spans(), 0u);  // drain, never drop
  EXPECT_GE(tracer.ring_highwater(), 1u);
  EXPECT_LE(tracer.ring_highwater(), kRing);
}

TEST(ObsExporterTest, StreamingCapLimitsOpenSpansOnly) {
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock,
                {.max_spans = 2, .exporter = &sink, .ring_capacity = 8});

  const std::uint64_t a = tracer.begin_span("a");
  const std::uint64_t b = tracer.begin_span("b");
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(tracer.begin_span("c"), 0u);  // 2 already open
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  tracer.end_span(a);
  // Completed spans never count against the cap: room again.
  const std::uint64_t d = tracer.begin_span("d");
  EXPECT_NE(d, 0u);
  tracer.end_span(d);
  tracer.end_span(b);
  tracer.flush_exporter();
  EXPECT_EQ(tracer.exported_spans(), 3u);
}

TEST(ObsExporterTest, DestructorFlushesTheRing) {
  std::size_t exported = 0;
  CallbackSpanSink sink([&exported](const SpanRecord&) { ++exported; });
  LogicalClock clock;
  {
    Tracer tracer(clock, {.exporter = &sink, .ring_capacity = 64});
    for (int i = 0; i < 5; ++i) {
      tracer.end_span(tracer.begin_span("s"));  // never fills the ring
    }
    EXPECT_EQ(exported, 0u);
  }
  EXPECT_EQ(exported, 5u);
}

TEST(ObsExporterTest, StructureSignatureMatchesRetainedMode) {
  auto run = [](SpanSink* sink) {
    LogicalClock clock;
    TracerOptions options;
    options.exporter = sink;
    options.ring_capacity = 2;
    Tracer tracer(clock, options);
    const std::uint64_t root = tracer.begin_span("batch");
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t s = tracer.begin_span("session", root);
      const std::uint64_t g = tracer.begin_span("gp.fit", s);
      tracer.end_span(g);
      tracer.end_span(s);
    }
    tracer.end_span(root);
    return tracer.structure_signature();
  };
  CallbackSpanSink sink([](const SpanRecord&) {});
  const std::string streaming = run(&sink);
  const std::string retained = run(nullptr);
  EXPECT_EQ(streaming, retained);
  EXPECT_EQ(streaming, ">batch 1\nbatch>session 6\nsession>gp.fit 6\n");
}

TEST(ObsExporterTest, HealthInstrumentsLandInTheRegistry) {
  MetricsRegistry registry;
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock, {.max_spans = 1,
                        .exporter = &sink,
                        .ring_capacity = 4,
                        .health = &registry});
  const std::uint64_t a = tracer.begin_span("a");
  ASSERT_NE(a, 0u);
  // A child while `a` is open trips the open-span cap.
  EXPECT_EQ(tracer.begin_span("b", a), 0u);
  tracer.end_span(a);
  tracer.flush_exporter();

  bool saw_emitted = false, saw_dropped = false, saw_highwater = false;
  for (const MetricSnapshot& snap : registry.snapshot(true)) {
    if (snap.name == "obs.spans.emitted") {
      saw_emitted = true;
      EXPECT_TRUE(snap.deterministic);
      EXPECT_EQ(snap.counter_value, 1u);
    } else if (snap.name == "obs.spans.dropped") {
      saw_dropped = true;
      EXPECT_FALSE(snap.deterministic);
      EXPECT_EQ(snap.counter_value, 1u);
    } else if (snap.name == "obs.spans.ring_highwater") {
      saw_highwater = true;
      EXPECT_FALSE(snap.deterministic);
    }
  }
  EXPECT_TRUE(saw_emitted);
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_highwater);
}

TEST(ObsExporterTest, ChromeTraceFileIsValidAtEveryFlushBoundary) {
  const std::string path =
      tests::unique_temp_path("deepcat_exporter_trace", ".json");
  LogicalClock clock;
  {
    ChromeTraceFileSink sink(path, "logical");
    // Valid immediately after construction (zero spans).
    {
      const ChromeTraceCheck empty = validate_chrome_trace(read_file(path));
      EXPECT_TRUE(empty.ok) << empty.error;
      EXPECT_EQ(empty.complete_events, 0u);
    }
    Tracer tracer(clock, {.exporter = &sink, .ring_capacity = 3});
    for (std::size_t i = 0; i < 10; ++i) {
      const std::uint64_t root = tracer.begin_span("request");
      tracer.end_span(tracer.begin_span("session", root));
      tracer.end_span(root);
      tracer.flush_exporter();
      // The tail-rewind framing keeps the on-disk file a complete trace
      // after every flush — a crash here would still leave parseable JSON.
      const ChromeTraceCheck check = validate_chrome_trace(read_file(path));
      ASSERT_TRUE(check.ok) << "after flush " << i << ": " << check.error;
      ASSERT_EQ(check.complete_events, 2 * (i + 1));
    }
    EXPECT_EQ(sink.exported_spans(), 20u);
  }
  const std::string json = read_file(path);
  const ChromeTraceCheck final_check = validate_chrome_trace(json);
  EXPECT_TRUE(final_check.ok) << final_check.error;
  EXPECT_EQ(final_check.complete_events, 20u);
  EXPECT_NE(json.find("\"logical\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsExporterTest, StreamingModeChromeTraceIsEmptyButValid) {
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock, {.exporter = &sink, .ring_capacity = 2});
  tracer.end_span(tracer.begin_span("s"));
  std::ostringstream os;
  tracer.write_chrome_trace(os);  // exporter owns the spans
  const ChromeTraceCheck check = validate_chrome_trace(os.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.complete_events, 0u);
}

TEST(ObsExporterTest, RingCapacityMustBePositiveWithExporter) {
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  EXPECT_THROW(Tracer(clock, {.exporter = &sink, .ring_capacity = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::obs
