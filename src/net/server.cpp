#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <exception>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/prometheus.hpp"
#include "service/jsonl.hpp"

namespace deepcat::net {

namespace {

// Loop-internal epoll tokens; connection ids start above them.
constexpr std::uint64_t kWakeToken = 0;
constexpr std::uint64_t kUnixToken = 1;
constexpr std::uint64_t kTcpToken = 2;
constexpr std::uint64_t kHttpToken = 3;

// HTTP connections are one-exchange and read-only; anything parked this
// long without completing its request is a stuck scraper (or slowloris)
// holding an fd for nothing.
constexpr std::int64_t kHttpIdleTimeoutMs = 30'000;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

/// Blocking send of the whole buffer; false once the peer stops reading.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Signal routing: handlers may only touch async-signal-safe state, so the
// handler body is one atomic load plus request_shutdown() (an atomic store
// and an eventfd write).
std::atomic<FrontEnd*> g_signal_target{nullptr};

void forward_signal(int) {
  if (FrontEnd* target = g_signal_target.load()) target->request_shutdown();
}

}  // namespace

FrontEnd::FrontEnd(service::ShardedStreamingService& service,
                   FrontEndOptions options)
    : service_(service), options_(std::move(options)) {
  listeners_.reserve(3);  // pointers below index into this vector
  if (!options_.unix_path.empty()) {
    listeners_.push_back(listen_unix(options_.unix_path, /*backlog=*/128));
    unix_listener_ = &listeners_.back();
  }
  if (options_.tcp_port >= 0) {
    listeners_.push_back(
        listen_tcp(options_.tcp_host,
                   static_cast<std::uint16_t>(options_.tcp_port),
                   /*backlog=*/128));
    tcp_listener_ = &listeners_.back();
  }
  if (options_.http_port >= 0) {
    listeners_.push_back(
        listen_tcp(options_.http_host,
                   static_cast<std::uint16_t>(options_.http_port),
                   /*backlog=*/128));
    http_listener_ = &listeners_.back();
  }
  time_replies_ = service_.shard(0).options().reply_timings;
  if (auto* metrics = options_.obs.metrics) {
    obs_accepted_ = &metrics->counter("net.accepted");
    obs_rejected_ = &metrics->counter("net.rejected_overload");
    obs_overloaded_requests_ = &metrics->counter("net.overloaded_requests");
    obs_closed_ = &metrics->counter("net.closed");
    obs_idle_timeouts_ = &metrics->counter("net.idle_timeouts");
    obs_protocol_errors_ = &metrics->counter("net.protocol_errors");
    obs_open_conns_ =
        &metrics->gauge("net.open_connections", /*deterministic=*/false);
  }
}

FrontEnd::~FrontEnd() {
  if (signal_handlers_installed_) {
    g_signal_target.store(nullptr);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

std::uint16_t FrontEnd::tcp_port() const noexcept {
  return tcp_listener_ != nullptr ? tcp_listener_->port : 0;
}

std::uint16_t FrontEnd::http_port() const noexcept {
  return http_listener_ != nullptr ? http_listener_->port : 0;
}

void FrontEnd::request_shutdown() noexcept {
  shutdown_requested_.store(true);
  wake_.notify();
}

void FrontEnd::install_signal_handlers() {
  g_signal_target.store(this);
  std::signal(SIGTERM, forward_signal);
  std::signal(SIGINT, forward_signal);
  signal_handlers_installed_ = true;
}

bool FrontEnd::accepting() const noexcept {
  if (draining_ || !listeners_open_) return false;
  if (options_.exit_after_connections != 0 &&
      stats_.accepted >= options_.exit_after_connections) {
    return false;
  }
  return true;
}

std::string FrontEnd::global_tele_payload() const {
  std::ostringstream tele;
  service::write_telemetry_payload(
      tele, service_.aggregate_metrics(), service_.build_info(),
      service_.metrics_registry(),
      options_.tele_include_nondeterministic);
  return strip_newline(std::move(tele).str());
}

void FrontEnd::emit_conn_tele(Connection& conn) {
  // Connection-scoped aggregate (a pure function of ITS request sequence
  // and barriers), then the shared instrument set.
  std::ostringstream tele;
  service::write_telemetry_payload(
      tele, conn.metrics.snapshot(), service_.build_info(),
      service_.metrics_registry(),
      options_.tele_include_nondeterministic);
  conn.queue_frame(service::FrameType::kTelemetry,
                   strip_newline(std::move(tele).str()));
  ++conn.tele_frames;
}

void FrontEnd::maybe_emit_tser(Connection& conn) {
  // Convergence time-series, emitted immediately before a TELE at the
  // same protocol points (FLSH, STAT, tail). Strictly gated on a registry
  // being attached: without one the stream stays byte-identical v2-shaped.
  const obs::TimeSeriesRegistry* series = service_.timeseries_registry();
  if (series == nullptr) return;
  std::ostringstream os;
  obs::write_timeseries_jsonl(os, series->snapshot());
  conn.queue_frame(service::FrameType::kTimeSeries,
                   strip_newline(std::move(os).str()));
  ++conn.tser_frames;
}

void FrontEnd::accept_ready(Listener& listener, bool is_tcp) {
  for (;;) {
    FdGuard fd(::accept4(listener.fd.get(), nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (!accepting() || conns_.size() >= options_.max_connections) {
      // Admission control, never a silent drop: greet with a decodable
      // header + typed ERR + END, then close.
      ++stats_.rejected_overload;
      if (obs_rejected_ != nullptr) obs_rejected_->add(1);
      auto conn = std::make_unique<Connection>(next_conn_id_++, std::move(fd),
                                               is_tcp);
      conn->queue_bytes(service::encode_stream_header());
      conn->queue_frame(
          service::FrameType::kError,
          service::stream_error_payload(
              "overloaded: connection limit reached (" +
              std::to_string(options_.max_connections) + ")"));
      conn->queue_frame(service::FrameType::kEnd, "");
      conn->state = ConnState::kClosing;
      const std::uint64_t id = conn->id();
      loop_.add(conn->fd(), id);
      conn->last_activity_ms = now_ms();
      Connection& ref = *conns_.emplace(id, std::move(conn)).first->second;
      pump_writes(ref);
      continue;
    }
    open_conn(std::move(fd), is_tcp);
  }
}

void FrontEnd::adopt(FdGuard fd) {
  set_nonblocking(fd.get());
  open_conn(std::move(fd), /*is_tcp=*/false);
}

void FrontEnd::open_conn(FdGuard fd, bool is_tcp) {
  ++stats_.accepted;
  if (obs_accepted_ != nullptr) obs_accepted_->add(1);
  auto conn =
      std::make_unique<Connection>(next_conn_id_++, std::move(fd), is_tcp);
  if (auto* tracer = options_.obs.tracer) {
    conn->span = tracer->begin_span("conn", options_.obs.trace_parent);
  }
  conn->queue_bytes(service::encode_stream_header());
  conn->last_activity_ms = now_ms();
  const std::uint64_t id = conn->id();
  loop_.add(conn->fd(), id);
  Connection& ref = *conns_.emplace(id, std::move(conn)).first->second;
  if (obs_open_conns_ != nullptr) {
    obs_open_conns_->set(static_cast<double>(conns_.size()));
  }
  pump_writes(ref);
}

void FrontEnd::handle_frame(Connection& conn, service::Frame frame) {
  switch (frame.type) {
    case service::FrameType::kRequest: {
      const std::size_t ordinal = conn.requests++;
      if (outstanding_total_ >= options_.max_inflight) {
        ++conn.overloaded_requests;
        ++stats_.overloaded_requests;
        if (obs_overloaded_requests_ != nullptr) {
          obs_overloaded_requests_->add(1);
        }
        conn.queue_frame(
            service::FrameType::kError,
            service::stream_error_payload(
                "request " + std::to_string(ordinal) +
                ": overloaded: in-flight limit reached (" +
                std::to_string(options_.max_inflight) + ")"));
        break;
      }
      service::TuningRequest request;
      obs::Tracer* tracer = options_.obs.tracer;
      const bool time_decode = time_replies_ && tracer != nullptr;
      const std::uint64_t t_decode =
          time_decode ? tracer->clock().now_ns() : 0;
      try {
        request = service::parse_request_json(frame.payload, ordinal);
      } catch (const std::exception& e) {
        conn.queue_frame(service::FrameType::kError,
                         service::stream_error_payload(
                             "request " + std::to_string(ordinal) + ": " +
                             e.what()));
        ++conn.parse_errors;
        break;
      }
      if (!request.trace_id.empty()) {
        // Wire-propagated trace context: the session's request span
        // parents under this connection's span, so one trace shows
        // client -> conn -> request -> session.
        request.server_parent_span = conn.span;
        if (time_decode) {
          request.decode_ns = tracer->clock().now_ns() - t_decode;
        }
      }
      // Typed-error contract: a warm request against a missing/empty
      // index never becomes a failed session.
      if (const auto warm_err = service_.warm_error(request)) {
        conn.queue_frame(service::FrameType::kError,
                         service::stream_error_payload(
                             "request " + std::to_string(ordinal) + ": " +
                             *warm_err));
        ++conn.parse_errors;
        break;
      }
      const std::uint64_t conn_id = conn.id();
      const std::uint64_t reply_index = conn.next_request_index++;
      ++conn.outstanding;
      ++outstanding_total_;
      service_.submit(
          std::move(request),
          [this, conn_id, reply_index](service::StreamReport report) {
            // Notify under the lock: once the loop has drained this
            // completion it may return from run() and destroy the front
            // end, so nothing here may touch it after the unlock.
            std::scoped_lock lock(completions_mutex_);
            completions_.push_back({conn_id, reply_index, std::move(report)});
            wake_.notify();
          });
      break;
    }
    case service::FrameType::kFlush:
      conn.state = ConnState::kFlushWait;
      ++flush_waiters_;
      admissions_paused_ = true;
      break;
    case service::FrameType::kStat: {
      if (const auto stat_error = service::stat_payload_error(frame.payload)) {
        conn.queue_frame(service::FrameType::kError,
                         service::stream_error_payload("STAT: " + *stat_error));
        ++conn.parse_errors;
      } else {
        ++conn.stat_polls;
        // STAT is the live global poll: cross-shard aggregate plus the
        // full instrument set, no barrier.
        maybe_emit_tser(conn);
        conn.queue_frame(service::FrameType::kTelemetry,
                         global_tele_payload());
        ++conn.tele_frames;
      }
      break;
    }
    case service::FrameType::kEnd:
      conn.clean_end = true;
      begin_conn_drain(conn);
      break;
    default:
      conn.queue_frame(
          service::FrameType::kError,
          service::stream_error_payload(
              "unexpected '" +
              service::frame_type_name(
                  static_cast<std::uint32_t>(frame.type)) +
              "' frame from client"));
      ++conn.parse_errors;
      break;
  }
}

void FrontEnd::process_frames(Connection& conn) {
  // Frame processing pauses globally while a FLSH barrier is pending:
  // admitting new sessions would keep the service busy forever.
  while (conn.state == ConnState::kOpen && flush_waiters_ == 0) {
    std::optional<service::Frame> frame;
    try {
      frame = conn.decoder.next();
    } catch (const service::WireError& e) {
      // Corrupt framing is unrecoverable on a length-prefixed stream:
      // one typed ERR, then the normal tail. Only THIS connection dies.
      fail_stream(conn, e.what());
      return;
    }
    if (!frame) break;
    handle_frame(conn, *std::move(frame));
  }
  // Every complete frame the peer sent before its EOF has been served (a
  // pending barrier re-enters here once it lifts): EOF without END is a
  // protocol error, but the peer may be half-closed and still reading.
  if (conn.peer_eof && conn.state == ConnState::kOpen && flush_waiters_ == 0) {
    fail_stream(conn, conn.decoder.midstream()
                          ? "truncated wire stream inside a frame"
                          : "wire stream ended before the 'END' frame");
  }
}

void FrontEnd::fail_stream(Connection& conn, const std::string& message) {
  conn.stream_error = service::stream_error_payload(message);
  ++conn.protocol_errors;
  if (obs_protocol_errors_ != nullptr) obs_protocol_errors_->add(1);
  begin_conn_drain(conn);
}

void FrontEnd::drain_completions() {
  std::vector<Completion> batch;
  {
    std::scoped_lock lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& completion : batch) {
    --outstanding_total_;
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // force-closed during drain timeout
    Connection& conn = *it->second;
    --conn.outstanding;
    if (conn.state == ConnState::kZombie) {
      // Peer gone; the session still ran (and will merge), but there is
      // nobody to reply to. Retire the husk once accounting settles.
      if (conn.outstanding == 0) finish_conn(conn);
      continue;
    }
    conn.pending_replies.emplace(completion.reply_index,
                                 std::move(completion.report));
    release_replies(conn);
    pump_writes(conn);
    maybe_emit_tail(conn);
  }
}

void FrontEnd::release_replies(Connection& conn) {
  // Strict admission-order release: a reply that completed early waits in
  // pending_replies until every earlier admission has been written. The
  // metrics are recorded here too, so their float sums never depend on
  // completion order.
  for (auto it = conn.pending_replies.find(conn.next_reply_index);
       it != conn.pending_replies.end();
       it = conn.pending_replies.find(conn.next_reply_index)) {
    service::StreamReport& report = it->second;
    conn.metrics.record(report.session);
    if (!report.session.ok) ++conn.failed_sessions;
    if (report.session.timings.has_value() && options_.obs.tracer != nullptr) {
      // Write cost via a discarded dry-run serialization (two clock reads
      // bracketing the same encoder the real reply uses below).
      obs::Clock& clock = options_.obs.tracer->clock();
      const std::uint64_t t0 = clock.now_ns();
      (void)service::stream_reply_payload(report);
      report.session.timings->write_ns = clock.now_ns() - t0;
    }
    conn.queue_frame(service::FrameType::kReply,
                     service::stream_reply_payload(report));
    conn.pending_replies.erase(it);
    ++conn.next_reply_index;
    ++conn.replies;
    if (options_.tele_every != 0 &&
        conn.replies % options_.tele_every == 0) {
      emit_conn_tele(conn);
    }
  }
}

void FrontEnd::maybe_run_flush() {
  // A FLSH decoded during the re-pump below re-parks its connection AFTER
  // flush_waiters_ was reset, so the barrier must be re-evaluated until no
  // waiter remains — otherwise back-to-back FLSH frames strand the loop in
  // epoll_wait with nothing left to wake it. Terminates: each pass either
  // consumes buffered frames (no new bytes arrive while we are here) or
  // puts sessions in flight, whose completions re-invoke us from run().
  while (flush_waiters_ > 0 && outstanding_total_ == 0) {
    // Every callback has been processed, so every shard's in-flight count
    // is zero: flush() will not block.
    std::vector<Connection*> waiters;
    for (auto& [id, conn] : conns_) {
      if (conn->state == ConnState::kFlushWait) waiters.push_back(conn.get());
    }
    flush_for(waiters);
    for (Connection* conn : waiters) {
      conn->state = ConnState::kOpen;
      maybe_emit_tser(*conn);
      emit_conn_tele(*conn);
      pump_writes(*conn);
    }
    flush_waiters_ = 0;
    resume_admissions();
  }
}

void FrontEnd::flush_for(const std::vector<Connection*>& waiters) {
  const service::ServiceMetrics before = service_.aggregate_metrics();
  (void)service_.flush_all();
  const service::ServiceMetrics after = service_.aggregate_metrics();
  for (Connection* conn : waiters) conn->metrics.record_barrier(before, after);
}

void FrontEnd::resume_admissions() {
  // Admissions were paused; re-pump every connection's buffered frames
  // and re-arm reads that were deasserted while the barrier was pending
  // (update_interest inside pump_writes re-raises EPOLLIN, so bytes that
  // backed up in the kernel during the pause trigger a fresh event).
  for (auto& [id, conn] : conns_) {
    process_frames(*conn);
    pump_writes(*conn);
    maybe_emit_tail(*conn);
  }
}

void FrontEnd::begin_conn_drain(Connection& conn) {
  if (conn.state == ConnState::kFlushWait) --flush_waiters_;
  conn.state = ConnState::kDraining;
  maybe_emit_tail(conn);
}

void FrontEnd::maybe_emit_tail(Connection& conn) {
  if (conn.state != ConnState::kDraining) return;
  if (conn.outstanding != 0 || !conn.pending_replies.empty()) return;
  if (options_.flush_on_end) {
    // Single-connection tail: a global barrier before the final
    // telemetry. Deferred until the service quiesces, like FLSH.
    if (outstanding_total_ != 0) return;
    flush_for({&conn});
  }
  if (!conn.stream_error.empty()) {
    conn.queue_frame(service::FrameType::kError, conn.stream_error);
  }
  maybe_emit_tser(conn);
  emit_conn_tele(conn);
  // The deprecated METR frame still precedes END so wire-v1 readers find
  // their flat keys.
  std::ostringstream metrics;
  service::write_metrics_jsonl(metrics, conn.metrics.snapshot(),
                               service_.build_info());
  conn.queue_frame(service::FrameType::kMetrics,
                   strip_newline(std::move(metrics).str()));
  conn.queue_frame(service::FrameType::kEnd, "");
  conn.state = ConnState::kClosing;
  pump_writes(conn);
}

void FrontEnd::begin_server_drain() {
  if (draining_) return;
  draining_ = true;
  drain_started_ms_ = now_ms();
  for (auto& listener : listeners_) {
    // The HTTP observability listener survives the drain on purpose:
    // /healthz keeps answering 503 "draining" until the loop exits, which
    // is how orchestrators see readiness flip before the process goes.
    if (&listener == http_listener_) continue;
    if (listener.fd.valid()) {
      loop_.remove(listener.fd.get());
      listener.fd.reset();
    }
    listener.socket_file.reset();
  }
  listeners_open_ = false;
  for (auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kOpen ||
        conn->state == ConnState::kFlushWait) {
      // Buffered-but-unprocessed frames are dropped by design: drain
      // means "finish what was admitted", not "accept more work".
      begin_conn_drain(*conn);
    }
  }
  flush_waiters_ = 0;
}

void FrontEnd::check_timeouts(std::int64_t now) {
  if (options_.idle_timeout_seconds > 0 && !draining_) {
    const auto limit =
        static_cast<std::int64_t>(options_.idle_timeout_seconds * 1000.0);
    for (auto& [id, conn] : conns_) {
      if (conn->state != ConnState::kOpen) continue;
      if (conn->outstanding != 0 || !conn->pending_replies.empty()) continue;
      if (now - conn->last_activity_ms < limit) continue;
      ++stats_.idle_timeouts;
      if (obs_idle_timeouts_ != nullptr) obs_idle_timeouts_->add(1);
      conn->queue_frame(service::FrameType::kError,
                        service::stream_error_payload("idle timeout"));
      conn->queue_frame(service::FrameType::kEnd, "");
      conn->state = ConnState::kClosing;
      pump_writes(*conn);
    }
  }
  if (!http_conns_.empty()) {
    for (auto& [id, conn] : http_conns_) {
      if (conn->responded) continue;  // write-draining, bounded by epoll
      if (now - conn->last_activity_ms < kHttpIdleTimeoutMs) continue;
      HttpError timeout{408, "request head not received in time"};
      conn->queue(render_http_error(timeout));
      conn->responded = true;
      ++stats_.http_errors;
      pump_http_writes(*conn);
    }
    reap();  // pump may finish connections
  }
  if (draining_ && options_.drain_timeout_seconds > 0) {
    const auto limit =
        static_cast<std::int64_t>(options_.drain_timeout_seconds * 1000.0);
    if (now - drain_started_ms_ >= limit) {
      for (auto& [id, conn] : conns_) {
        // Skip conns already retired this iteration (finished, awaiting
        // reap) — they closed on their own, not by force.
        if (conn->state == ConnState::kZombie || conn->finished) continue;
        ++stats_.forced_closes;
        make_zombie(*conn);
      }
      reap();
    }
  }
}

bool FrontEnd::wants_read(const Connection& conn) const noexcept {
  // Read only while frames can actually be processed. During a FLSH
  // barrier and once a connection leaves kOpen (draining, closing), bytes
  // would pile up undecoded — kMaxFramePayload bounds one frame, not the
  // backlog — so leave them in the kernel socket buffer: that is bounded
  // backpressure the peer's send() feels. EPOLLRDHUP stays armed until
  // the peer's EOF is read, so hangups still reach a read-paused
  // connection.
  return conn.state == ConnState::kOpen && flush_waiters_ == 0 &&
         !conn.peer_eof;
}

void FrontEnd::update_interest(Connection& conn) {
  const bool want_write = conn.write_pending();
  const bool want_read = wants_read(conn);
  const bool want_rdhup = !conn.peer_eof;
  if (conn.fd() < 0 ||
      (want_write == conn.epollout && want_read == conn.epollin &&
       want_rdhup == conn.epollrdhup)) {
    return;
  }
  loop_.modify(conn.fd(), conn.id(), want_write, want_read, want_rdhup);
  conn.epollout = want_write;
  conn.epollin = want_read;
  conn.epollrdhup = want_rdhup;
}

void FrontEnd::pump_writes(Connection& conn) {
  if (conn.state == ConnState::kZombie || conn.fd() < 0) return;
  const IoStatus status = conn.flush_writes();
  if (status == IoStatus::kError) {
    make_zombie(conn);
    return;
  }
  if (status == IoStatus::kOk) {
    conn.last_activity_ms = now_ms();
    if (conn.state == ConnState::kClosing) {
      finish_conn(conn);
      return;
    }
  }
  update_interest(conn);
}

void FrontEnd::make_zombie(Connection& conn) {
  // The peer can no longer read; drop buffered output and the fd, but
  // keep the Connection until its in-flight sessions complete so the
  // outstanding accounting stays exact (no silent drops — the sessions
  // still run and merge).
  conn.abandon_writes();
  if (conn.state == ConnState::kFlushWait) --flush_waiters_;
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  conn.state = ConnState::kZombie;
  if (conn.outstanding == 0) finish_conn(conn);
}

void FrontEnd::finish_conn(Connection& conn) {
  // Idempotent: a conn queued in dead_conns_ can be reached again before
  // reap() (e.g. the drain-timeout sweep in the same loop iteration);
  // counting it twice would corrupt stats_ and end its span twice.
  if (conn.finished) return;
  conn.finished = true;
  stats_.requests += conn.requests;
  stats_.replies += conn.replies;
  stats_.failed_sessions += conn.failed_sessions;
  stats_.parse_errors += conn.parse_errors;
  stats_.protocol_errors += conn.protocol_errors;
  stats_.stat_polls += conn.stat_polls;
  stats_.tele_frames += conn.tele_frames;
  stats_.tser_frames += conn.tser_frames;
  if (conn.clean_end) ++stats_.clean_ends;
  if (obs_closed_ != nullptr) obs_closed_->add(1);
  if (conn.span != 0) {
    if (auto* tracer = options_.obs.tracer) tracer->end_span(conn.span);
  }
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  dead_conns_.push_back(conn.id());
}

void FrontEnd::reap() {
  for (const std::uint64_t id : dead_conns_) conns_.erase(id);
  if (!dead_conns_.empty() && obs_open_conns_ != nullptr) {
    obs_open_conns_->set(static_cast<double>(conns_.size()));
  }
  dead_conns_.clear();
  for (const std::uint64_t id : dead_http_conns_) http_conns_.erase(id);
  dead_http_conns_.clear();
}

void FrontEnd::accept_http_ready() {
  for (;;) {
    FdGuard fd(::accept4(http_listener_->fd.get(), nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<HttpConnection>(id, std::move(fd));
    conn->last_activity_ms = now_ms();
    loop_.add(conn->fd(), id);
    HttpConnection& ref = *http_conns_.emplace(id, std::move(conn))
                               .first->second;
    if (http_conns_.size() > options_.max_connections) {
      // Scrapers are cheap but not free; past the cap they get the same
      // typed-refusal treatment as DCWP connections.
      HttpError overload{503, "overloaded: connection limit reached"};
      ref.queue(render_http_error(overload));
      ref.responded = true;
      ++stats_.http_errors;
      pump_http_writes(ref);
    }
  }
}

std::string FrontEnd::route_http(const HttpRequest& request) {
  if (request.path == "/healthz") {
    // Readiness, not liveness: flips to 503 the moment a drain starts (or
    // admission is closed), while the process is still up serving tails.
    if (draining_) {
      ++stats_.http_errors;
      return render_http_response(503, "text/plain; charset=utf-8",
                                  "draining\n");
    }
    if (conns_.size() >= options_.max_connections) {
      ++stats_.http_errors;
      return render_http_response(503, "text/plain; charset=utf-8",
                                  "overloaded\n");
    }
    ++stats_.http_requests;
    return render_http_response(200, "text/plain; charset=utf-8", "ok\n");
  }
  if (request.path == "/metrics") {
    const obs::MetricsRegistry* registry = service_.metrics_registry();
    std::ostringstream os;
    obs::write_prometheus_text(
        os,
        registry != nullptr ? registry->snapshot()
                            : std::vector<obs::MetricSnapshot>{},
        service_.build_info());
    ++stats_.http_requests;
    return render_http_response(
        200, "text/plain; version=0.0.4; charset=utf-8",
        std::move(os).str());
  }
  if (request.path == "/varz") {
    // The same payload a STAT poll gets, over HTTP: live cross-shard
    // aggregate plus the instrument set, flat JSON.
    ++stats_.http_requests;
    return render_http_response(200, "application/json",
                                global_tele_payload() + "\n");
  }
  if (request.path == "/timeseries") {
    const obs::TimeSeriesRegistry* series = service_.timeseries_registry();
    if (series == nullptr) {
      ++stats_.http_errors;
      HttpError off{404, "time-series retention is off (serve --series)"};
      return render_http_error(off);
    }
    std::ostringstream os;
    obs::write_timeseries_json(os, series->snapshot());
    ++stats_.http_requests;
    return render_http_response(200, "application/json", std::move(os).str());
  }
  ++stats_.http_errors;
  HttpError unknown{404, "no route '" + request.path +
                             "'; routes: /metrics /healthz /varz /timeseries"};
  return render_http_error(unknown);
}

void FrontEnd::respond_http(HttpConnection& conn) {
  if (conn.responded) return;
  HttpRequest request;
  HttpError error;
  switch (parse_http_request(conn.buffer(), request, error)) {
    case HttpParseResult::kNeedMore:
      return;
    case HttpParseResult::kRequest:
      conn.queue(route_http(request));
      break;
    case HttpParseResult::kError:
      ++stats_.http_errors;
      conn.queue(render_http_error(error));
      break;
  }
  conn.responded = true;
}

void FrontEnd::pump_http_writes(HttpConnection& conn) {
  if (conn.fd() < 0) return;
  const IoStatus status = conn.flush_writes();
  if (status == IoStatus::kError) {
    finish_http_conn(conn);
    return;
  }
  if (status == IoStatus::kOk && conn.responded) {
    finish_http_conn(conn);
    return;
  }
  const bool want_write = conn.write_pending();
  if (want_write != conn.epollout) {
    loop_.modify(conn.fd(), conn.id(), want_write, !conn.responded);
    conn.epollout = want_write;
  }
}

void FrontEnd::finish_http_conn(HttpConnection& conn) {
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  dead_http_conns_.push_back(conn.id());
}

void FrontEnd::handle_http_event(HttpConnection& conn, const Event& event) {
  if (event.error) {
    finish_http_conn(conn);
    return;
  }
  if (event.readable || event.hangup) {
    const IoStatus status = conn.read_some();
    if (status == IoStatus::kOk) conn.last_activity_ms = now_ms();
    respond_http(conn);
    if (status == IoStatus::kEof && !conn.responded) {
      // Peer closed before completing a request: nothing to answer.
      finish_http_conn(conn);
      return;
    }
    if (status == IoStatus::kError) {
      finish_http_conn(conn);
      return;
    }
  }
  pump_http_writes(conn);
}

void FrontEnd::handle_conn_event(Connection& conn, const Event& event) {
  if (conn.state == ConnState::kZombie) return;
  if (event.error) {
    make_zombie(conn);
    return;
  }
  if (event.readable || event.hangup) {
    if (conn.peer_eof) {
      // Reads and EPOLLRDHUP are disarmed once EOF has been read, so this
      // is EPOLLHUP: the peer closed both directions and reads nothing.
      make_zombie(conn);
      return;
    }
    const IoStatus status = conn.read_some();
    if (status == IoStatus::kOk) conn.last_activity_ms = now_ms();
    if (status == IoStatus::kEof) conn.peer_eof = true;
    process_frames(conn);
    pump_writes(conn);
    if (conn.state == ConnState::kZombie) return;
    if (status == IoStatus::kError) {
      make_zombie(conn);
      return;
    }
  }
  if (event.writable && conn.state != ConnState::kZombie) {
    pump_writes(conn);
  }
  if (conn.state != ConnState::kZombie) maybe_emit_tail(conn);
}

FrontEndStats FrontEnd::run() {
  loop_.add(wake_.fd(), kWakeToken);
  if (unix_listener_ != nullptr) {
    loop_.add(unix_listener_->fd.get(), kUnixToken);
  }
  if (tcp_listener_ != nullptr) {
    loop_.add(tcp_listener_->fd.get(), kTcpToken);
  }
  if (http_listener_ != nullptr) {
    loop_.add(http_listener_->fd.get(), kHttpToken);
  }
  listeners_open_ = true;

  std::vector<Event> events;
  for (;;) {
    const bool exit_after_done =
        options_.exit_after_connections != 0 &&
        stats_.accepted >= options_.exit_after_connections;
    if ((draining_ || exit_after_done) && conns_.empty() &&
        outstanding_total_ == 0) {
      break;
    }
    const bool timed = draining_ || options_.idle_timeout_seconds > 0 ||
                       !http_conns_.empty();
    (void)loop_.wait(events, timed ? 100 : -1);
    for (const Event& event : events) {
      if (event.token == kWakeToken) {
        wake_.drain();
      } else if (event.token == kUnixToken) {
        accept_ready(*unix_listener_, /*is_tcp=*/false);
      } else if (event.token == kTcpToken) {
        accept_ready(*tcp_listener_, /*is_tcp=*/true);
      } else if (event.token == kHttpToken) {
        accept_http_ready();
      } else if (const auto it = conns_.find(event.token);
                 it != conns_.end()) {
        handle_conn_event(*it->second, event);
      } else if (const auto hit = http_conns_.find(event.token);
                 hit != http_conns_.end()) {
        handle_http_event(*hit->second, event);
      }
    }
    drain_completions();
    maybe_run_flush();
    if (admissions_paused_ && flush_waiters_ == 0) {
      // The pause can also end without a merge — the last waiter hung up
      // (make_zombie decrement) or a server drain reset the barrier.
      // Re-pump and re-arm reads, or paused conns stall forever.
      admissions_paused_ = false;
      resume_admissions();
    }
    if (shutdown_requested_.load()) begin_server_drain();
    if (draining_ || (options_.flush_on_end && outstanding_total_ == 0)) {
      // Tails can unblock on GLOBAL conditions (server drain, the
      // flush-on-end quiesce), not just on this connection's own
      // completions — re-check everyone.
      for (auto& [id, conn] : conns_) maybe_emit_tail(*conn);
    }
    check_timeouts(now_ms());
    reap();
  }

  // Final barrier: merge whatever completed without an explicit FLSH so
  // checkpoints after a drain reflect every admitted session.
  (void)service_.flush_all();
  return stats_;
}

namespace {

/// Forwards `in_fd` into `fd` until the input ends or `stop_fd` turns
/// readable (the stream is over, whether or not the input is).
void pump_fd(int in_fd, int fd, int stop_fd) {
  char buf[64 * 1024];
  for (;;) {
    pollfd fds[2] = {{in_fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll(): ") + std::strerror(errno));
    }
    // A closed descriptor reads as an empty stream.
    if (fds[1].revents != 0 || (fds[0].revents & POLLNVAL) != 0) return;
    const ssize_t n = ::read(in_fd, buf, sizeof buf);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n < 0) {
      throw std::runtime_error(std::string("read(): ") + std::strerror(errno));
    }
    if (n == 0 || !send_all(fd, buf, static_cast<std::size_t>(n))) return;
  }
}

/// Runs a single-connection front end over a socketpair: the server end
/// is adopted, `pump_input(fd, stop_fd)` feeds the client end on one
/// thread, and a second thread copies the server's bytes to `out`.
FrontEndStats serve_adopted(
    service::ShardedStreamingService& service, std::ostream& out,
    FrontEndOptions options,
    const std::function<void(int fd, int stop_fd)>& pump_input) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair(): ") +
                             std::strerror(errno));
  }
  FdGuard server_end(fds[0]);
  const FdGuard client_end(fds[1]);
  WakeFd stop;
  options.unix_path.clear();
  options.tcp_port = -1;
  options.http_port = -1;
  options.exit_after_connections = 1;
  options.flush_on_end = true;
  FrontEnd front_end(service, std::move(options));
  front_end.adopt(std::move(server_end));

  const int fd = client_end.get();
  // A pump that throws records the failure and shuts the client end, so
  // the loop sees the peer go away instead of waiting on it forever.
  std::exception_ptr input_failure;
  std::exception_ptr output_failure;
  std::thread input([&pump_input, &input_failure, &stop, fd] {
    try {
      pump_input(fd, stop.fd());
    } catch (...) {
      input_failure = std::current_exception();
    }
    (void)::shutdown(fd, SHUT_WR);
  });

  FrontEndStats stats;
  std::exception_ptr failure;
  std::thread output;
  try {
    output = std::thread([&out, &output_failure, fd] {
      try {
        char buf[64 * 1024];
        for (;;) {
          const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;  // the server closed (a reset after unread input)
          out.write(buf, n);
          out.flush();
        }
      } catch (...) {
        output_failure = std::current_exception();
        (void)::shutdown(fd, SHUT_RDWR);
      }
    });
    stats = front_end.run();
  } catch (...) {
    failure = std::current_exception();
    (void)::shutdown(fd, SHUT_RDWR);  // unblocks both pumps
  }
  // The stream is over: input still pending (an open terminal, bytes
  // after END) is never read, and a blocked send fails.
  stop.notify();
  (void)::shutdown(fd, SHUT_WR);
  if (output.joinable()) output.join();
  input.join();
  if (!failure) failure = output_failure ? output_failure : input_failure;
  if (failure) std::rethrow_exception(failure);
  return stats;
}

}  // namespace

FrontEndStats serve_stream(service::ShardedStreamingService& service,
                           std::istream& in, std::ostream& out,
                           FrontEndOptions options) {
  return serve_adopted(service, out, std::move(options),
                       [&in](int fd, int /*stop_fd*/) {
                         char buf[64 * 1024];
                         while (in) {
                           in.read(buf, sizeof buf);
                           const std::streamsize n = in.gcount();
                           if (n <= 0 ||
                               !send_all(fd, buf,
                                         static_cast<std::size_t>(n))) {
                             break;
                           }
                         }
                       });
}

FrontEndStats serve_stream(service::ShardedStreamingService& service,
                           int in_fd, std::ostream& out,
                           FrontEndOptions options) {
  return serve_adopted(service, out, std::move(options),
                       [in_fd](int fd, int stop_fd) {
                         pump_fd(in_fd, fd, stop_fd);
                       });
}

}  // namespace deepcat::net
