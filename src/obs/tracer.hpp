// Span tracer with explicit parent/child links and an injectable clock,
// exporting Chrome-trace-format JSON (load the file in chrome://tracing
// or https://ui.perfetto.dev).
//
// Spans are explicit: begin_span() returns an id, the caller threads it to
// children as `parent`, end_span() closes it. No thread-local implicit
// stack — in this codebase a request's work hops across pool threads
// (admission thread -> session worker -> merge under the flush barrier),
// so "current span" is a property of the request, not the thread. The
// Sink (sink.hpp) carries the parent id across layer boundaries.
//
// Two storage modes:
//
//   * retained (default, no exporter): every span stays in memory until
//     write_chrome_trace(); max_spans caps the store and begin_span()
//     drops past it. Right for tests and bounded CLI runs.
//   * streaming (options.exporter set): completed spans land in a bounded
//     ring and are drained to the SpanSink whenever the ring fills and at
//     flush_exporter(). Memory is O(ring_capacity + open spans) whatever
//     the stream length; a full ring drains synchronously (back-pressure)
//     instead of dropping, so dropped_spans() counts only spans refused
//     because too many were simultaneously *open* (> max_spans), not
//     truncation of the completed-span history.
//
// Determinism: with a LogicalClock, timestamps are tick numbers and the
// *structure* of the trace (the multiset of parent-name -> span-name
// edges) is a pure function of the work performed — invariant across
// thread counts and arrival shuffles, in both storage modes (the edge
// multiset is maintained incrementally at begin_span, so streaming export
// never loses it). Tick assignment order still depends on interleaving,
// so golden tests compare structure_signature(), not bytes. See
// DESIGN.md §10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/exporter.hpp"

namespace deepcat::obs {

class MetricsRegistry;
class Counter;
class Gauge;

struct TracerOptions {
  /// Retained mode: hard cap on stored spans; beyond it begin_span()
  /// drops (returns 0) and counts. Streaming mode: cap on simultaneously
  /// OPEN spans — completed spans stream out and are never capped.
  std::size_t max_spans = 1u << 20;
  /// Streaming export destination; nullptr = retained mode.
  SpanSink* exporter = nullptr;
  /// Completed-span ring size in streaming mode. A full ring drains to
  /// the exporter synchronously (back-pressure, no loss). Must be >= 1.
  std::size_t ring_capacity = 256;
  /// Optional registry for tracer health instruments
  /// (obs.spans.emitted/dropped/ring_highwater) so trace loss is visible
  /// in the metrics snapshot, not only via accessors. Must outlive the
  /// tracer.
  MetricsRegistry* health = nullptr;
};

class Tracer {
 public:
  explicit Tracer(Clock& clock, TracerOptions options = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Clock& clock() noexcept { return *clock_; }

  /// Opens a span. parent = 0 means root. Returns the span id (> 0), or 0
  /// when the cap was hit — 0 is always safe to pass as a parent and to
  /// end_span().
  [[nodiscard]] std::uint64_t begin_span(std::string name,
                                         std::uint64_t parent = 0);

  /// Closes a span by id; id 0 is a no-op. Closing twice keeps the first
  /// end time.
  void end_span(std::uint64_t id);

  /// Records an already-timed span with explicit start/duration, bypassing
  /// the clock. Used to graft timings measured elsewhere into this trace:
  /// the stats client turns a REP's t_*_ns stage block into child spans of
  /// its local rpc span, so one Chrome-trace file shows the request's full
  /// life across both processes. Returns the span id, or 0 when dropped
  /// at the span cap.
  std::uint64_t add_complete_span(std::string name, std::uint64_t parent,
                                  std::uint64_t t0_ns,
                                  std::uint64_t duration_ns);

  /// RAII helper: ends the span on scope exit.
  class Span {
   public:
    Span(Tracer* tracer, std::uint64_t id) noexcept
        : tracer_(tracer), id_(id) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
      other.tracer_ = nullptr;
      other.id_ = 0;
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->end_span(id_);
    }
    /// Id to pass to children as their parent.
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    std::uint64_t id_;
  };

  [[nodiscard]] Span scope(std::string name, std::uint64_t parent = 0) {
    return Span(this, begin_span(std::move(name), parent));
  }

  /// Spans begun and not dropped (retained: stored; streaming: open +
  /// ringed + exported).
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::size_t dropped_spans() const;

  /// Spans currently held in memory: records in retained mode, open map +
  /// ring in streaming mode. The streaming determinism stress asserts
  /// this stays O(ring_capacity + concurrency).
  [[nodiscard]] std::size_t retained_spans() const;
  /// Completed spans handed to the exporter so far (0 in retained mode).
  [[nodiscard]] std::size_t exported_spans() const;
  /// Deepest the completed-span ring ever got (<= ring_capacity).
  [[nodiscard]] std::size_t ring_highwater() const;

  /// Streaming mode: drains the ring to the exporter and flushes the
  /// sink, making everything completed so far durable. No-op in retained
  /// mode. The destructor calls this.
  void flush_exporter();

  /// Chrome trace event format: one "X" (complete) event per span with
  /// ts/dur in microseconds, plus metadata naming the process and the
  /// clock kind. Unended spans export with dur 0. Retained mode only —
  /// in streaming mode the exporter owns the spans and this writes an
  /// empty (but valid) trace.
  void write_chrome_trace(std::ostream& os) const;

  /// Deterministic structural digest: name-sorted lines
  /// "<parent-name>><name> <count>\n" with "" as the root parent. Two
  /// logical-clock runs of the same work produce identical signatures
  /// whatever the interleaving — and whichever storage mode is active.
  [[nodiscard]] std::string structure_signature() const;

 private:
  struct Record {
    std::string name;
    std::uint64_t parent = 0;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    bool ended = false;
    std::uint32_t tid = 0;
  };

  /// Requires mutex_ held. Hands the ring to the exporter and clears it.
  void drain_ring_locked();
  [[nodiscard]] std::uint32_t tid_for_current_thread_locked();

  Clock* clock_;
  TracerOptions options_;
  mutable std::mutex mutex_;

  // Retained mode storage (span id == 1-based index into records_).
  std::deque<Record> records_;

  // Streaming mode storage: monotonically id'd open spans + completed ring.
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Record> open_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_highwater_ = 0;
  std::uint64_t exported_ = 0;

  // Parent-name -> name edge multiset, maintained incrementally so the
  // structural digest survives streaming export.
  std::map<std::pair<std::string, std::string>, std::uint64_t> edges_;

  std::map<std::thread::id, std::uint32_t> tids_;
  std::uint64_t dropped_ = 0;

  // Health instruments (null when options_.health is null).
  Counter* health_emitted_ = nullptr;
  Counter* health_dropped_ = nullptr;
  Gauge* health_ring_highwater_ = nullptr;
};

/// Structural validation of a Chrome trace JSON document, for tests and
/// the CLI smoke checks: verifies the traceEvents array exists, every
/// event object has name/ph/ts/pid/tid, and "X" events carry dur.
struct ChromeTraceCheck {
  bool ok = false;
  std::size_t events = 0;
  std::size_t complete_events = 0;
  std::string error;
};

[[nodiscard]] ChromeTraceCheck validate_chrome_trace(const std::string& json);

}  // namespace deepcat::obs
