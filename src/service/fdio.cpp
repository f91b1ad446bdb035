#include "service/fdio.hpp"

#ifdef __unix__

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "service/wire.hpp"

namespace pglb {

int accept_connection(int listener) {
  const int connection = ::accept(listener, nullptr, nullptr);
  if (connection >= 0) {
    const int one = 1;
    ::setsockopt(connection, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return connection;
}

FdInStreambuf::FdInStreambuf(int fd, std::uint64_t handshake_timeout_ms,
                             std::uint64_t idle_timeout_ms)
    : fd_(fd),
      handshake_timeout_ms_(handshake_timeout_ms),
      idle_timeout_ms_(idle_timeout_ms) {
  setg(buffer_, buffer_, buffer_);
}

std::streambuf::int_type FdInStreambuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  for (;;) {
    const std::uint64_t timeout_ms =
        saw_first_byte_ ? idle_timeout_ms_ : handshake_timeout_ms_;
    // poll() takes an int of milliseconds; 0 here means "no deadline".
    const int wait =
        timeout_ms == 0
            ? -1
            : static_cast<int>(std::min<std::uint64_t>(
                  timeout_ms, static_cast<std::uint64_t>(
                                  std::numeric_limits<int>::max())));
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, wait);
    if (ready == 0) {
      // Deadline expired with no byte: synthesize EOF and record why.
      if (saw_first_byte_) {
        idle_timed_out_ = true;
      } else {
        handshake_timed_out_ = true;
      }
      return traits_type::eof();
    }
    if (ready < 0) {
      if (wire::classify_io_errno(errno) == wire::IoClass::kRetry) continue;
      return traits_type::eof();
    }
    const ssize_t n = ::read(fd_, buffer_, sizeof buffer_);
    if (n > 0) {
      saw_first_byte_ = true;
      setg(buffer_, buffer_, buffer_ + n);
      return traits_type::to_int_type(*gptr());
    }
    if (n == 0) return traits_type::eof();  // orderly peer close
    if (wire::classify_io_errno(errno) != wire::IoClass::kFatal) continue;
    return traits_type::eof();
  }
}

}  // namespace pglb

#endif  // __unix__
