#include "service/jsonl.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace deepcat::service {

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

void expect(const std::string& s, std::size_t& i, char c,
            const char* what) {
  skip_ws(s, i);
  if (i >= s.size() || s[i] != c) {
    throw std::invalid_argument(std::string("malformed JSON: expected ") +
                                what);
  }
  ++i;
}

std::string parse_string(const std::string& s, std::size_t& i) {
  expect(s, i, '"', "'\"'");
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) break;
      const char esc = s[i++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        default:
          throw std::invalid_argument(
              "malformed JSON: unsupported escape sequence");
      }
    }
    out.push_back(c);
  }
  if (i >= s.size()) {
    throw std::invalid_argument("malformed JSON: unterminated string");
  }
  ++i;  // closing quote
  return out;
}

std::string parse_scalar(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i < s.size() && s[i] == '"') return parse_string(s, i);
  // Bare token: number, true, false, null — taken until , } or whitespace.
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' &&
         std::isspace(static_cast<unsigned char>(s[i])) == 0) {
    ++i;
  }
  if (i == start) {
    throw std::invalid_argument("malformed JSON: expected a value");
  }
  return s.substr(start, i - start);
}

}  // namespace

std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  expect(line, i, '{', "'{'");
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return out;
  for (;;) {
    skip_ws(line, i);
    const std::string key = parse_string(line, i);
    expect(line, i, ':', "':'");
    out[key] = parse_scalar(line, i);
    skip_ws(line, i);
    if (i >= line.size()) {
      throw std::invalid_argument("malformed JSON: missing '}'");
    }
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    throw std::invalid_argument("malformed JSON: expected ',' or '}'");
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

TuningRequest parse_request_json(const std::string& line, std::size_t index) {
  const auto fields = parse_flat_json(line);
  TuningRequest req;
  req.id = "req-" + std::to_string(index);
  req.seed = index + 1;
  if (const auto it = fields.find("id"); it != fields.end()) {
    req.id = it->second;
  }
  if (const auto it = fields.find("workload"); it != fields.end()) {
    req.workload = it->second;
  } else {
    throw std::invalid_argument("request '" + req.id +
                                "' is missing the \"workload\" key");
  }
  if (const auto it = fields.find("cluster"); it != fields.end()) {
    req.cluster = it->second;
  }
  if (const auto it = fields.find("steps"); it != fields.end()) {
    req.max_steps = std::stoi(it->second);
  }
  if (const auto it = fields.find("budget_seconds"); it != fields.end()) {
    req.max_total_seconds = std::stod(it->second);
  }
  if (const auto it = fields.find("seed"); it != fields.end()) {
    req.seed = static_cast<std::uint64_t>(std::stoull(it->second));
  }
  if (const auto it = fields.find("model"); it != fields.end()) {
    req.model = it->second;
  }
  if (const auto it = fields.find("warm"); it != fields.end()) {
    try {
      req.warm_k = std::stoi(it->second);
    } catch (const std::exception&) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a non-integer \"warm\" count '" +
                                  it->second + "'");
    }
    if (req.warm_k < 0) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a negative \"warm\" count");
    }
  }
  if (const auto it = fields.find("trace"); it != fields.end()) {
    // Mirrors the "warm" precedent: a malformed trace context is a typed
    // parse error, never a silently-untraced session.
    if (it->second.empty()) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has an empty \"trace\" id");
    }
    req.trace_id = it->second;
  }
  if (const auto it = fields.find("span"); it != fields.end()) {
    if (req.trace_id.empty()) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a \"span\" id without a \"trace\"");
    }
    try {
      std::size_t used = 0;
      if (!it->second.empty() && it->second[0] == '-') {
        throw std::invalid_argument("negative");
      }
      req.trace_span = std::stoull(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a non-integer \"span\" id '" +
                                  it->second + "'");
    }
  }
  if (const auto it = fields.find("scope"); it != fields.end()) {
    // Mirrors the "warm" precedent: a malformed scope is a typed parse
    // error, never a silent fall-back to global routing.
    if (it->second == "global") {
      req.scope = TuneScope::kGlobal;
    } else if (it->second == "workload") {
      req.scope = TuneScope::kWorkload;
    } else if (it->second == "hardware") {
      req.scope = TuneScope::kHardware;
    } else {
      throw std::invalid_argument(
          "request '" + req.id + "' has an unknown \"scope\" '" + it->second +
          "' (use global, workload or hardware)");
    }
  }
  return req;
}

std::vector<TuningRequest> parse_requests_jsonl(std::istream& is) {
  std::vector<TuningRequest> requests;
  std::string line;
  std::size_t index = 0;
  while (std::getline(is, line)) {
    std::size_t i = 0;
    skip_ws(line, i);
    if (i >= line.size()) continue;  // blank line
    requests.push_back(parse_request_json(line, index));
    ++index;
  }
  return requests;
}

namespace {

void write_report_body(std::ostream& os, const SessionReport& r,
                       bool with_routing, std::uint64_t model_epoch) {
  os.precision(17);
  os << "{\"id\":\"" << json_escape(r.id) << "\",\"workload\":\""
     << json_escape(r.workload) << "\",\"cluster\":\""
     << json_escape(r.cluster) << "\"";
  if (with_routing) {
    os << ",\"model\":\"" << json_escape(r.model)
       << "\",\"model_epoch\":" << model_epoch;
  }
  os << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    os << ",\"error\":\"" << json_escape(r.error) << "\"}\n";
    return;
  }
  // Cold sessions omit the key entirely so pre-warm transcripts (and their
  // golden files) stay byte-identical.
  if (r.warm_seeds > 0) os << ",\"warm\":" << r.warm_seeds;
  // Global-scope sessions likewise omit "scope" — legacy transcripts stay
  // byte-identical; scoped ones echo the level the model was keyed under.
  if (!r.scope.empty()) {
    os << ",\"scope\":\"" << json_escape(r.scope) << "\"";
  }
  // Traced sessions echo the client's trace id plus the deterministic
  // server span id; untraced REPs omit both keys (byte-identity again).
  if (!r.trace_id.empty()) {
    os << ",\"trace\":\"" << json_escape(r.trace_id)
       << "\",\"span\":" << r.server_span;
  }
  // Gated per-stage timing block (StreamingOptions.reply_timings).
  if (r.timings.has_value()) {
    os << ",\"t_decode_ns\":" << r.timings->decode_ns
       << ",\"t_queue_ns\":" << r.timings->queue_ns
       << ",\"t_session_ns\":" << r.timings->session_ns
       << ",\"t_merge_ns\":" << r.timings->merge_ns
       << ",\"t_write_ns\":" << r.timings->write_ns;
  }
  os << ",\"steps\":" << r.report.steps.size()
     << ",\"default_time\":" << r.report.default_time
     << ",\"best_time\":" << r.report.best_time
     << ",\"speedup\":" << r.report.speedup_over_default()
     << ",\"eval_seconds\":" << r.report.total_evaluation_seconds()
     << ",\"rec_seconds\":" << r.report.total_recommendation_seconds()
     << ",\"mean_reward\":" << r.mean_reward();
  // Streaming sessions append their re-adaptation accounting; batch REPs
  // carry none of these keys, so existing goldens are untouched.
  if (r.report.stream.has_value()) {
    const sparksim::StreamSummary& ss = *r.report.stream;
    os << ",\"objective\":\"" << to_string(r.report.objective) << "\""
       << ",\"phases\":" << ss.phases << ",\"windows\":" << ss.windows
       << ",\"shifts\":" << ss.shifts.size()
       << ",\"recovered\":" << (ss.all_recovered() ? "true" : "false");
    os << ",\"recovery_evals\":\"";
    for (std::size_t i = 0; i < ss.shifts.size(); ++i) {
      if (i > 0) os << ',';
      os << (ss.shifts[i].recovered ? std::to_string(ss.shifts[i].recovery_evals)
                                    : std::string("-"));
    }
    os << "\",\"final_p95_s\":" << ss.final_p95_s;
  }
  os << "}\n";
}

}  // namespace

void write_report_jsonl(std::ostream& os, const SessionReport& r) {
  write_report_body(os, r, /*with_routing=*/false, 0);
}

void write_report_jsonl(std::ostream& os, const SessionReport& r,
                        std::uint64_t model_epoch) {
  write_report_body(os, r, /*with_routing=*/true, model_epoch);
}

namespace {

/// The one serializer for the aggregate metrics fields — METR and the
/// TELE aggregate line both call it, so the flat keys cannot drift apart.
/// Writes the keys only; the caller owns the braces (and any keys before
/// or after).
void write_metrics_body(std::ostream& os, const ServiceMetrics& m) {
  os.precision(17);
  os << "\"aggregate\":true,\"sessions\":" << m.sessions_served
     << ",\"failed\":" << m.sessions_failed
     << ",\"evaluations\":" << m.evaluations_paid
     << ",\"eval_seconds\":" << m.evaluation_seconds
     << ",\"rec_seconds\":" << m.recommendation_seconds
     << ",\"p50_rec_seconds\":" << m.p50_recommendation_seconds
     << ",\"p95_rec_seconds\":" << m.p95_recommendation_seconds
     << ",\"mean_reward\":" << m.mean_session_reward
     << ",\"mean_speedup\":" << m.mean_speedup
     << ",\"merges\":" << m.merges
     << ",\"merged_transitions\":" << m.merged_transitions
     << ",\"fine_tune_steps\":" << m.fine_tune_steps;
}

/// Deterministic subset: the integer fields only. The float aggregates
/// (second totals, means, tracker quantiles) accumulate in completion
/// order, so their low-order bits depend on scheduling; the deterministic
/// TELE payload leaves them to the registry's fixed-point instruments.
void write_metrics_body_deterministic(std::ostream& os,
                                      const ServiceMetrics& m) {
  os << "\"aggregate\":true,\"sessions\":" << m.sessions_served
     << ",\"failed\":" << m.sessions_failed
     << ",\"evaluations\":" << m.evaluations_paid
     << ",\"merges\":" << m.merges
     << ",\"merged_transitions\":" << m.merged_transitions
     << ",\"fine_tune_steps\":" << m.fine_tune_steps;
}

void write_build_labels(std::ostream& os, const obs::BuildInfo& build) {
  os << ",\"version\":\"" << json_escape(build.version) << "\""
     << ",\"backend\":\"" << json_escape(build.backend) << "\""
     << ",\"simd_compiled\":" << (build.simd_compiled ? "true" : "false")
     << ",\"threads\":" << build.threads;
}

}  // namespace

void write_metrics_jsonl(std::ostream& os, const ServiceMetrics& m) {
  os << '{';
  write_metrics_body(os, m);
  os << "}\n";
}

void write_metrics_jsonl(std::ostream& os, const ServiceMetrics& m,
                         const obs::BuildInfo& build) {
  os << '{';
  write_metrics_body(os, m);
  write_build_labels(os, build);
  os << "}\n";
}

void write_telemetry_payload(std::ostream& os, const ServiceMetrics& m,
                             const obs::BuildInfo& build,
                             const obs::MetricsRegistry* registry,
                             bool include_nondeterministic) {
  os << "{\"tele\":" << kTelemetrySchemaVersion << ",\"deterministic\":"
     << (include_nondeterministic ? "false" : "true") << ',';
  if (include_nondeterministic) {
    write_metrics_body(os, m);
  } else {
    write_metrics_body_deterministic(os, m);
  }
  write_build_labels(os, build);
  os << "}\n";
  if (registry != nullptr) {
    registry->write_jsonl(os, include_nondeterministic);
  }
}

}  // namespace deepcat::service
