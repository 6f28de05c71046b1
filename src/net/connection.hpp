// Per-connection state for the serving front end.
//
// A Connection owns one accepted nonblocking socket plus everything the
// event loop needs to drive it: the incremental frame decoder on the read
// side, a byte queue with partial-write tracking on the write side
// (EPOLLOUT is armed only while the queue is nonempty), per-connection
// protocol counters, and a connection-scoped metrics accumulator so the
// session aggregate in the TELE frames this connection receives at
// FLSH/END is a pure function of ITS requests — never of what other
// connections happened to be doing.
//
// Reply ordering: session completions arrive in scheduling order, which
// is nondeterministic. The connection buffers out-of-order replies in
// `pending_replies` (keyed by per-connection admission index) and
// releases them strictly in admission order — recording each into the
// metrics accumulator as it goes out — so each connection's transcript
// is byte-identical across thread counts and shard counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "net/fd.hpp"
#include "net/frame_decoder.hpp"
#include "service/service.hpp"
#include "service/streaming.hpp"

namespace deepcat::net {

enum class ConnState {
  kOpen,       ///< reading and serving frames
  kFlushWait,  ///< saw FLSH; waiting for the global quiesce + merge
  kDraining,   ///< saw END / fatal error / server drain; tail pending
  kClosing,    ///< tail queued; close when the write buffer empties
  kZombie,     ///< peer gone with sessions in flight; kept for accounting
};

/// Transport result of a socket read or write attempt.
enum class IoStatus {
  kOk,        ///< progressed (or nothing to do)
  kWouldBlock,///< kernel buffer empty/full; wait for the next event
  kEof,       ///< orderly peer shutdown (reads only)
  kError,     ///< ECONNRESET/EPIPE/...; the fd is dead
};

class Connection {
 public:
  Connection(std::uint64_t id, FdGuard fd, bool is_tcp)
      : id_(id), fd_(std::move(fd)), is_tcp_(is_tcp) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool is_tcp() const noexcept { return is_tcp_; }

  ConnState state = ConnState::kOpen;
  FrameDecoder decoder;

  /// Per-connection serve counters, summed into FrontEndStats at close.
  std::size_t requests = 0;
  std::size_t failed_sessions = 0;
  std::size_t parse_errors = 0;
  std::size_t protocol_errors = 0;
  std::size_t stat_polls = 0;
  std::size_t tele_frames = 0;
  std::size_t tser_frames = 0;
  std::size_t replies = 0;
  std::size_t overloaded_requests = 0;
  bool clean_end = false;
  bool finished = false;     ///< retired into stats; awaiting reap only
  /// The peer shut its write side. Frames already buffered are still
  /// served (after any pending barrier); only then is a missing END
  /// reported.
  bool peer_eof = false;
  /// Stream-ending protocol ERR payload (corrupt framing, EOF without
  /// END), queued at the tail after the replies admitted before it.
  std::string stream_error;

  bool epollout = false;     ///< EPOLLOUT currently armed for this fd
  bool epollin = true;       ///< EPOLLIN currently armed for this fd
  bool epollrdhup = true;    ///< EPOLLRDHUP currently armed for this fd
  std::uint64_t span = 0;    ///< obs span id covering accept..close

  /// Admission-order reply sequencing.
  std::uint64_t next_request_index = 0;  ///< assigned at REQ parse time
  std::uint64_t next_reply_index = 0;    ///< next index to release
  std::map<std::uint64_t, service::StreamReport> pending_replies;
  std::size_t outstanding = 0;  ///< submitted, completion not yet seen

  service::SessionMetrics metrics;

  /// Millisecond timestamp (loop clock) of the last read/write progress.
  std::int64_t last_activity_ms = 0;

  /// Reads whatever the kernel has into the decoder. kOk means at least
  /// one byte arrived.
  [[nodiscard]] IoStatus read_some();

  /// Appends an encoded frame (or raw header bytes) to the write queue.
  void queue_bytes(std::string_view bytes) { write_buffer_.append(bytes); }
  void queue_frame(service::FrameType type, std::string_view payload) {
    write_buffer_.append(service::encode_frame(type, payload));
  }

  /// Pushes queued bytes to the kernel. kOk means the queue is empty;
  /// kWouldBlock means EPOLLOUT should stay armed.
  [[nodiscard]] IoStatus flush_writes();

  [[nodiscard]] bool write_pending() const noexcept {
    return write_pos_ < write_buffer_.size();
  }

  /// Drops buffered output (zombie path: the peer can no longer read).
  void abandon_writes() noexcept {
    write_buffer_.clear();
    write_pos_ = 0;
  }

  void close() noexcept { fd_.reset(); }

 private:
  std::uint64_t id_;
  FdGuard fd_;
  bool is_tcp_;
  std::string write_buffer_;
  std::size_t write_pos_ = 0;
};

}  // namespace deepcat::net
