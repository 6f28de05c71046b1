// FrontEnd: the epoll serving loop that multiplexes many DCWP
// connections over one ShardedStreamingService.
//
// Architecture (DESIGN.md §11):
//
//   - ONE event-loop thread owns all sockets and all Connection state;
//     sessions run on the shards' pools. Completions cross back via a
//     mutex-guarded queue plus an eventfd wakeup, so no connection state
//     is ever touched off-loop.
//   - Replies are released in per-connection ADMISSION order (buffered in
//     Connection::pending_replies until their turn), so every
//     connection's transcript is a pure function of its own request
//     sequence — independent of thread count, shard count and the other
//     connections.
//   - Admission control is typed, never silent: a connection beyond
//     --max-conns is greeted with header + ERR "overloaded" + END; a
//     request beyond --max-inflight gets an ERR naming its index. Both
//     leave the stream decodable.
//   - FLSH is a deferred barrier: the flushing connection parks in
//     kFlushWait and frame processing pauses globally (no new
//     admissions); once every outstanding session has completed the loop
//     runs flush_all() and answers each waiter with its connection-scoped
//     TELE — re-evaluating until no waiter remains, since a FLSH decoded
//     while re-pumping buffered frames re-parks after the reset. The loop
//     thread itself never blocks in flush(). While paused (and once a
//     connection is past kOpen), EPOLLIN is deasserted so inbound bytes
//     back up in the kernel socket buffer instead of growing the decoder
//     backlog without bound; EPOLLRDHUP stays armed for hangups until
//     the peer's EOF has been read.
//   - End of input: a peer that half-closes still gets every complete
//     frame it sent served — behind a pending barrier if need be — before
//     a missing END is reported. Stream-ending protocol ERRs (corrupt
//     framing, EOF without END) are queued at the tail, after the replies
//     of every request admitted before them; per-request ERRs (bad
//     payload, warm precheck, in-flight cap) go out immediately.
//   - Graceful drain (SIGTERM/SIGINT or request_shutdown()): stop
//     accepting, let in-flight sessions finish and their replies go out,
//     run one final flush_all(), then emit each connection's TELE(+METR)
//     + END tail and close once its write buffer empties. --drain-timeout
//     bounds the wait, after which stragglers are force-closed (counted,
//     never silent).
//
// TELE scoping: FLSH- and END-tail TELE frames carry the CONNECTION's
// session aggregates, recorded in admission order (deterministic per
// connection), plus the merge counters of the barriers it waited on, then
// the registry instrument lines. STAT answers carry the live GLOBAL
// cross-shard aggregate plus the instrument set — that is what
// `deepcat stats` polls. Its p50/p95 come from the merged fixed-edge
// histogram (ShardedStreamingService::aggregate_metrics), so they are
// bucket quantiles, not the exact per-connection ones.
//
// Streams that are not sockets (stdin/stdout, files, in-memory buffers)
// are served by serve_stream() below as one adopted connection of a
// single-connection front end.
#pragma once

#include <atomic>
#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "obs/sink.hpp"
#include "service/sharding.hpp"

namespace deepcat::net {

struct FrontEndOptions {
  /// AF_UNIX listener path; empty disables.
  std::string unix_path;
  /// TCP listener; port -1 disables, 0 binds an ephemeral port (read it
  /// back from FrontEnd::tcp_port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// HTTP observability listener (/metrics, /healthz, /varz,
  /// /timeseries); port -1 disables, 0 binds an ephemeral port (read it
  /// back from FrontEnd::http_port()). Stays open during drain so
  /// /healthz can report not-ready while connections finish.
  std::string http_host = "127.0.0.1";
  int http_port = -1;
  /// Admission control.
  std::size_t max_connections = 256;
  std::size_t max_inflight = 1024;
  /// Seconds a drain waits for connections to finish before force-close.
  double drain_timeout_seconds = 5.0;
  /// Disconnect connections idle this long with nothing in flight
  /// (0 = never).
  double idle_timeout_seconds = 0.0;
  /// Exit run() once this many connections have been served to
  /// completion (0 = run until shutdown). The single-connection
  /// `serve --socket` and serve_stream() contract is 1.
  std::size_t exit_after_connections = 0;
  /// Run a global flush barrier when a connection ends its stream (the
  /// single-connection tail). Off by default under multiplexing: merges
  /// then happen only at explicit FLSH barriers and at drain, so one
  /// connection's END cannot reshuffle another's epochs.
  bool flush_on_end = false;
  /// Also emit a TELE frame after every Nth REP (0 = only at the
  /// protocol-mandated points: FLSH boundaries, STAT polls, before END).
  std::size_t tele_every = 0;
  /// false = byte-stable TELE payloads (deterministic instruments and
  /// integer aggregates only); the CLI sets this for --clock logical.
  bool tele_include_nondeterministic = true;
  obs::Sink obs;
};

/// Aggregate outcome of one run(), summed over all connections.
struct FrontEndStats {
  std::size_t accepted = 0;
  std::size_t rejected_overload = 0;   ///< connections refused at the cap
  std::size_t overloaded_requests = 0; ///< requests refused at the cap
  std::size_t requests = 0;
  std::size_t replies = 0;
  std::size_t failed_sessions = 0;
  std::size_t parse_errors = 0;
  std::size_t protocol_errors = 0;
  std::size_t stat_polls = 0;
  std::size_t tele_frames = 0;
  std::size_t tser_frames = 0;         ///< convergence time-series frames
  std::size_t clean_ends = 0;          ///< connections that sent END
  std::size_t idle_timeouts = 0;
  std::size_t forced_closes = 0;       ///< drain-timeout casualties
  std::size_t http_requests = 0;       ///< HTTP exchanges answered 2xx
  std::size_t http_errors = 0;         ///< HTTP exchanges answered 4xx/5xx
};

class FrontEnd {
 public:
  /// Binds all configured listeners (throws on failure, nothing leaks —
  /// the Listener guards own fds and socket files). With none configured
  /// the front end serves only connections handed to adopt().
  FrontEnd(service::ShardedStreamingService& service, FrontEndOptions options);

  /// Serves an already-connected stream socket as if it had just been
  /// accepted (counts toward exit_after_connections). Call before run().
  void adopt(FdGuard fd);

  /// Actual TCP port (resolves a port-0 request); 0 when TCP is off.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept;

  /// Actual HTTP observability port; 0 when the HTTP endpoint is off.
  [[nodiscard]] std::uint16_t http_port() const noexcept;

  /// Runs the loop until shutdown/exit-after; returns the aggregate
  /// stats. Call once.
  FrontEndStats run();

  /// Thread- and signal-safe shutdown request (starts a graceful drain).
  void request_shutdown() noexcept;

  /// Routes SIGTERM/SIGINT to request_shutdown() for the lifetime of this
  /// front end. At most one front end can hold the handlers at a time.
  void install_signal_handlers();
  ~FrontEnd();

 private:
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t reply_index = 0;
    service::StreamReport report;
  };

  void accept_ready(Listener& listener, bool is_tcp);
  void open_conn(FdGuard fd, bool is_tcp);
  void handle_conn_event(Connection& conn, const Event& event);
  void process_frames(Connection& conn);
  void handle_frame(Connection& conn, service::Frame frame);
  void fail_stream(Connection& conn, const std::string& message);
  void drain_completions();
  void release_replies(Connection& conn);
  void maybe_run_flush();
  void resume_admissions();
  void begin_conn_drain(Connection& conn);
  void maybe_emit_tail(Connection& conn);
  void emit_conn_tele(Connection& conn);
  void maybe_emit_tser(Connection& conn);
  void accept_http_ready();
  void handle_http_event(HttpConnection& conn, const Event& event);
  void respond_http(HttpConnection& conn);
  [[nodiscard]] std::string route_http(const HttpRequest& request);
  void pump_http_writes(HttpConnection& conn);
  void finish_http_conn(HttpConnection& conn);
  void begin_server_drain();
  void check_timeouts(std::int64_t now_ms);
  void pump_writes(Connection& conn);
  void make_zombie(Connection& conn);
  void finish_conn(Connection& conn);
  void reap();
  void update_interest(Connection& conn);
  [[nodiscard]] bool wants_read(const Connection& conn) const noexcept;
  [[nodiscard]] bool accepting() const noexcept;
  [[nodiscard]] std::string global_tele_payload() const;
  /// flush_all() that credits the merge counters it moved to `waiters`.
  void flush_for(const std::vector<Connection*>& waiters);

  service::ShardedStreamingService& service_;
  FrontEndOptions options_;
  EventLoop loop_;
  WakeFd wake_;
  std::vector<Listener> listeners_;  ///< unix, tcp, http (when present)
  Listener* unix_listener_ = nullptr;
  Listener* tcp_listener_ = nullptr;
  Listener* http_listener_ = nullptr;
  bool listeners_open_ = false;
  /// True when traced REPs carry the per-stage timing block (read from
  /// the service options; needs the tracer's clock as a time source).
  bool time_replies_ = false;

  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  /// HTTP connections share the id/token space with DCWP connections but
  /// live in their own map — their lifecycle is one request, one
  /// response, close.
  std::map<std::uint64_t, std::unique_ptr<HttpConnection>> http_conns_;
  std::uint64_t next_conn_id_ = 8;  ///< tokens 0..7 reserved for the loop
  std::vector<std::uint64_t> dead_conns_;
  std::vector<std::uint64_t> dead_http_conns_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  std::size_t outstanding_total_ = 0;
  std::size_t flush_waiters_ = 0;
  /// True from the moment a FLSH parks until the pause is lifted and the
  /// buffered/deferred frames have been re-pumped (run() clears it).
  bool admissions_paused_ = false;
  bool draining_ = false;
  std::int64_t drain_started_ms_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  bool signal_handlers_installed_ = false;

  FrontEndStats stats_;

  obs::Counter* obs_accepted_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
  obs::Counter* obs_overloaded_requests_ = nullptr;
  obs::Counter* obs_closed_ = nullptr;
  obs::Counter* obs_idle_timeouts_ = nullptr;
  obs::Counter* obs_protocol_errors_ = nullptr;
  obs::Gauge* obs_open_conns_ = nullptr;
};

/// Serves one DCWP stream read from `in`, writing the server's bytes to
/// `out`: the stream becomes the single adopted connection of a FrontEnd
/// over a socketpair (exit_after_connections = 1, flush_on_end; the
/// listener fields of `options` are ignored). Two threads pump input and
/// output, so a regular file works (epoll rejects those) and backpressure
/// on one side cannot deadlock the other. Returns once the connection is
/// done. `in` is read in 64 KiB blocks, so it suits streams that never
/// wait for a producer (in-memory buffers, files).
FrontEndStats serve_stream(service::ShardedStreamingService& service,
                           std::istream& in, std::ostream& out,
                           FrontEndOptions options = {});

/// The same for a file descriptor (stdin, a pipe, a file): bytes are
/// forwarded as soon as read() returns them, and the pump stops when the
/// stream ends even if `in_fd` stays open. `in_fd` is not closed.
FrontEndStats serve_stream(service::ShardedStreamingService& service,
                           int in_fd, std::ostream& out,
                           FrontEndOptions options = {});

}  // namespace deepcat::net
