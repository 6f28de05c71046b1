#include "net/connection.hpp"

#include <sys/socket.h>

#include <cerrno>

namespace deepcat::net {

IoStatus Connection::read_some() {
  char buf[16 * 1024];
  bool progressed = false;
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), buf, sizeof buf, 0);
    if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      progressed = true;
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return progressed ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

IoStatus Connection::flush_writes() {
  while (write_pos_ < write_buffer_.size()) {
    const ssize_t n =
        ::send(fd_.get(), write_buffer_.data() + write_pos_,
               write_buffer_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      write_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    if (errno == EINTR) continue;
    return IoStatus::kError;  // EPIPE/ECONNRESET: peer is gone
  }
  if (write_pos_ > 0) {
    write_buffer_.clear();
    write_pos_ = 0;
  }
  return IoStatus::kOk;
}

}  // namespace deepcat::net
