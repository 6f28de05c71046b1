// Minimal JSONL codec for the `deepcat serve` batch driver: one flat JSON
// object per line (string / number / bool values, no nesting), hand-rolled
// because the build deliberately takes no third-party dependencies. This
// is a wire format for our own CLI round trip, not a general JSON parser.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/build_info.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace deepcat::service {

/// Schema version of the TELE aggregate line ("tele" key). Bump when the
/// payload shape changes incompatibly.
inline constexpr int kTelemetrySchemaVersion = 1;

/// Parses one flat JSON object into key -> raw value (strings unescaped,
/// numbers/bools kept as their literal text). Throws std::invalid_argument
/// on malformed input, naming what was expected.
[[nodiscard]] std::map<std::string, std::string> parse_flat_json(
    const std::string& line);

/// Escapes a string for embedding in a JSON value.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Parses one tuning request from a flat JSON object line. Recognized
/// keys: id, workload, cluster, steps, budget_seconds, seed, model, warm
/// (neighbour count for warm-start retrieval; 0 = cold, negative rejected),
/// scope ("global" | "workload" | "hardware"; missing = global),
/// trace (client trace id; missing = untraced), span (client parent span
/// id, non-negative integer; requires trace).
/// Missing id defaults to "req-<index>"; missing seed derives from
/// `index` so every request stays individually reproducible. Throws
/// std::invalid_argument on malformed JSON, a missing workload key, a
/// negative warm count, an unknown scope, or a malformed trace context.
[[nodiscard]] TuningRequest parse_request_json(const std::string& line,
                                               std::size_t index);

/// Reads tuning requests from a JSONL stream, skipping blank lines;
/// one parse_request_json call per non-blank line.
[[nodiscard]] std::vector<TuningRequest> parse_requests_jsonl(
    std::istream& is);

/// One JSON report line per session; full double precision so equal
/// results serialize to equal bytes (the pool-size independence check
/// diffs these lines directly).
void write_report_jsonl(std::ostream& os, const SessionReport& r);

/// Streaming variant: also emits the routed model name and the monotonic
/// master epoch that served the session, so clients can tell which master
/// version produced each recommendation.
void write_report_jsonl(std::ostream& os, const SessionReport& r,
                        std::uint64_t model_epoch);

/// The aggregate metrics line emitted after a batch ("aggregate":true).
void write_metrics_jsonl(std::ostream& os, const ServiceMetrics& m);

/// Streaming METR variant: the same aggregate fields plus build-info
/// labels (version, dispatched numeric backend, thread count). Additive
/// keys only — PR 3 clients parse with a tolerant flat-JSON reader, so
/// old readers still accept the extended frame. The batch driver keeps
/// the unlabelled writer so its output diffs clean across --threads and
/// numeric backends. Deprecated in wire v2 in favor of the TELE payload
/// (write_telemetry_payload); still emitted for v1 readers.
void write_metrics_jsonl(std::ostream& os, const ServiceMetrics& m,
                         const obs::BuildInfo& build);

/// The TELE frame payload: line 1 is the aggregate object — a "tele"
/// schema version tag, then the exact METR field serializer (the two
/// writers share one implementation so the flat keys can never drift),
/// then the build labels — followed by the registry's name-sorted
/// instrument set, one JSON line per instrument (write_metric_json
/// format, histogram lines carry p50/p95/p99). registry may be null
/// (aggregate line only).
///
/// include_nondeterministic=false is the byte-stable variant the
/// determinism stress compares across thread counts and arrival
/// shuffles: it keeps only the integer aggregate fields (float sums
/// accumulate in completion order, so their low bits are scheduling
/// artifacts) and only the registry's deterministic instruments (whose
/// fixed-point accumulation is exact and commutative).
void write_telemetry_payload(std::ostream& os, const ServiceMetrics& m,
                             const obs::BuildInfo& build,
                             const obs::MetricsRegistry* registry,
                             bool include_nondeterministic = true);

}  // namespace deepcat::service
