#include "obs/tracer.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace deepcat::obs {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

}  // namespace

Tracer::Tracer(Clock& clock, TracerOptions options)
    : clock_(&clock), options_(options) {
  if (options_.exporter != nullptr && options_.ring_capacity == 0) {
    throw std::invalid_argument("Tracer: ring_capacity must be >= 1");
  }
  if (options_.exporter != nullptr) {
    ring_.reserve(options_.ring_capacity);
  }
  if (options_.health != nullptr) {
    // Emitted (completed) spans are a pure function of the work, so the
    // counter is deterministic; how deep the ring got and how many spans
    // were refused under open-span pressure are scheduling artifacts.
    health_emitted_ = &options_.health->counter("obs.spans.emitted");
    health_dropped_ =
        &options_.health->counter("obs.spans.dropped", /*deterministic=*/false);
    health_ring_highwater_ = &options_.health->gauge(
        "obs.spans.ring_highwater", /*deterministic=*/false);
  }
}

Tracer::~Tracer() { flush_exporter(); }

std::uint32_t Tracer::tid_for_current_thread_locked() {
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

void Tracer::drain_ring_locked() {
  if (ring_.empty() || options_.exporter == nullptr) return;
  if (health_ring_highwater_ != nullptr) {
    // Publish the tracked lifetime highwater, not the instantaneous depth:
    // a partial drain at flush time must not understate how deep the ring
    // ever got (the TELE pin reads this gauge's max).
    health_ring_highwater_->set(static_cast<double>(ring_highwater_));
  }
  options_.exporter->export_spans(ring_.data(), ring_.size());
  exported_ += ring_.size();
  ring_.clear();
}

std::uint64_t Tracer::begin_span(std::string name, std::uint64_t parent) {
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) {
    // Retained mode: ids are 1-based indexes into records_.
    if (records_.size() >= options_.max_spans) {
      ++dropped_;
      if (health_dropped_ != nullptr) health_dropped_->add(1);
      return 0;
    }
    Record rec;
    rec.parent = parent <= records_.size() ? parent : 0;
    ++edges_[{rec.parent == 0 ? std::string()
                              : records_[rec.parent - 1].name,
              name}];
    rec.name = std::move(name);
    rec.t0 = clock_->now_ns();
    rec.tid = tid_for_current_thread_locked();
    records_.push_back(std::move(rec));
    return records_.size();
  }
  // Streaming mode: completed spans leave through the exporter, so only
  // the simultaneously-open set is capped — refusing here is back-pressure
  // against a span leak, not history truncation.
  if (open_.size() >= options_.max_spans) {
    ++dropped_;
    if (health_dropped_ != nullptr) health_dropped_->add(1);
    return 0;
  }
  Record rec;
  // A parent that already completed (or was dropped at the cap) has left
  // the open map; its child exports re-parented to root. Instrumented code
  // in this repo always closes parents after children, so this is a
  // defensive path, not a hot one.
  const auto parent_it = parent == 0 ? open_.end() : open_.find(parent);
  rec.parent = parent_it == open_.end() ? 0 : parent;
  ++edges_[{parent_it == open_.end() ? std::string()
                                     : parent_it->second.name,
            name}];
  rec.name = std::move(name);
  rec.t0 = clock_->now_ns();
  rec.tid = tid_for_current_thread_locked();
  const std::uint64_t id = next_id_++;
  open_.emplace(id, std::move(rec));
  return id;
}

void Tracer::end_span(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) {
    if (id > records_.size()) return;
    Record& rec = records_[id - 1];
    if (rec.ended) return;
    rec.t1 = clock_->now_ns();
    rec.ended = true;
    if (health_emitted_ != nullptr) health_emitted_->add(1);
    return;
  }
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown or already ended
  SpanRecord out;
  out.name = std::move(it->second.name);
  out.id = id;
  out.parent = it->second.parent;
  out.t0 = it->second.t0;
  out.t1 = clock_->now_ns();
  out.tid = it->second.tid;
  open_.erase(it);
  ring_.push_back(std::move(out));
  ring_highwater_ = std::max(ring_highwater_, ring_.size());
  if (health_emitted_ != nullptr) health_emitted_->add(1);
  if (ring_.size() >= options_.ring_capacity) drain_ring_locked();
}

std::uint64_t Tracer::add_complete_span(std::string name, std::uint64_t parent,
                                        std::uint64_t t0_ns,
                                        std::uint64_t duration_ns) {
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) {
    if (records_.size() >= options_.max_spans) {
      ++dropped_;
      if (health_dropped_ != nullptr) health_dropped_->add(1);
      return 0;
    }
    Record rec;
    rec.parent = parent <= records_.size() ? parent : 0;
    ++edges_[{rec.parent == 0 ? std::string()
                              : records_[rec.parent - 1].name,
              name}];
    rec.name = std::move(name);
    rec.t0 = t0_ns;
    rec.t1 = t0_ns + duration_ns;
    rec.ended = true;
    rec.tid = tid_for_current_thread_locked();
    records_.push_back(std::move(rec));
    if (health_emitted_ != nullptr) health_emitted_->add(1);
    return records_.size();
  }
  // Streaming mode: the span is born complete, so it goes straight to the
  // ring without ever occupying an open-map slot.
  const auto parent_it = parent == 0 ? open_.end() : open_.find(parent);
  ++edges_[{parent_it == open_.end() ? std::string()
                                     : parent_it->second.name,
            name}];
  SpanRecord out;
  out.name = std::move(name);
  out.id = next_id_++;
  out.parent = parent_it == open_.end() ? 0 : parent;
  out.t0 = t0_ns;
  out.t1 = t0_ns + duration_ns;
  out.tid = tid_for_current_thread_locked();
  const std::uint64_t id = out.id;
  ring_.push_back(std::move(out));
  ring_highwater_ = std::max(ring_highwater_, ring_.size());
  if (health_emitted_ != nullptr) health_emitted_->add(1);
  if (ring_.size() >= options_.ring_capacity) drain_ring_locked();
  return id;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) return records_.size();
  return open_.size() + ring_.size() + static_cast<std::size_t>(exported_);
}

std::size_t Tracer::dropped_spans() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::size_t Tracer::retained_spans() const {
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) return records_.size();
  return open_.size() + ring_.size();
}

std::size_t Tracer::exported_spans() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(exported_);
}

std::size_t Tracer::ring_highwater() const {
  std::lock_guard lock(mutex_);
  return ring_highwater_;
}

void Tracer::flush_exporter() {
  std::lock_guard lock(mutex_);
  if (options_.exporter == nullptr) return;
  drain_ring_locked();
  options_.exporter->flush();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\""
     << clock_->kind() << "\",\"tool\":\"deepcat\"},\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"deepcat\"}}";
  const auto flags = os.flags();
  const auto previous = os.precision(3);
  os.setf(std::ios::fixed, std::ios::floatfield);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = records_[i];
    const double ts_us = static_cast<double>(rec.t0) / 1000.0;
    const double dur_us =
        rec.ended && rec.t1 >= rec.t0
            ? static_cast<double>(rec.t1 - rec.t0) / 1000.0
            : 0.0;
    os << ",\n{\"name\":";
    write_json_string(os, rec.name);
    os << ",\"cat\":\"deepcat\",\"ph\":\"X\",\"ts\":" << ts_us
       << ",\"dur\":" << dur_us << ",\"pid\":1,\"tid\":" << rec.tid
       << ",\"args\":{\"id\":" << (i + 1) << ",\"parent\":" << rec.parent
       << "}}";
  }
  os.flags(flags);
  os.precision(previous);
  os << "\n]}\n";
}

std::string Tracer::structure_signature() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [edge, count] : edges_) {
    out << edge.first << '>' << edge.second << ' ' << count << '\n';
  }
  return out.str();
}

namespace {

// Splits the top-level objects of a JSON array body by brace matching,
// skipping string contents. `pos` points just past the '['.
std::vector<std::string> split_array_objects(const std::string& json,
                                             std::size_t pos, bool& ok) {
  std::vector<std::string> objects;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::size_t start = std::string::npos;
  for (; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = pos;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0 && start != std::string::npos) {
        objects.push_back(json.substr(start, pos - start + 1));
        start = std::string::npos;
      }
      if (depth < 0) break;
    } else if (c == ']' && depth == 0) {
      ok = true;
      return objects;
    }
  }
  ok = false;
  return objects;
}

}  // namespace

ChromeTraceCheck validate_chrome_trace(const std::string& json) {
  ChromeTraceCheck check;
  const std::size_t key = json.find("\"traceEvents\"");
  if (key == std::string::npos) {
    check.error = "missing traceEvents key";
    return check;
  }
  const std::size_t open = json.find('[', key);
  if (open == std::string::npos) {
    check.error = "traceEvents is not an array";
    return check;
  }
  bool closed = false;
  const auto objects = split_array_objects(json, open + 1, closed);
  if (!closed) {
    check.error = "traceEvents array is not terminated";
    return check;
  }
  for (const auto& obj : objects) {
    for (const char* field : {"\"name\"", "\"ph\"", "\"ts\"", "\"pid\"",
                              "\"tid\""}) {
      if (obj.find(field) == std::string::npos) {
        // Metadata events carry no ts; allow that one exemption.
        if (std::string(field) == "\"ts\"" &&
            obj.find("\"ph\":\"M\"") != std::string::npos) {
          continue;
        }
        check.error = "event missing field " + std::string(field);
        return check;
      }
    }
    if (obj.find("\"ph\":\"X\"") != std::string::npos) {
      if (obj.find("\"dur\"") == std::string::npos) {
        check.error = "complete event missing dur";
        return check;
      }
      ++check.complete_events;
    }
  }
  check.events = objects.size();
  check.ok = true;
  return check;
}

}  // namespace deepcat::obs
