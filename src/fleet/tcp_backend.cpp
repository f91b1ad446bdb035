#include "fleet/tcp_backend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"

namespace pglb {

namespace {

/// One breather between retries of a transiently failing syscall — long
/// enough for the kernel to drain a buffer, short enough to be invisible.
void transient_pause() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

std::uint64_t now_steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic per-backend jitter seed: the name hashed through splitmix64.
std::uint64_t jitter_seed(const std::string& name) {
  std::uint64_t seed = 0xC3A5C85C97CB3127ull;
  for (const char c : name) {
    seed = splitmix64(seed ^ static_cast<unsigned char>(c));
  }
  return seed;
}

constexpr std::size_t kMaxIov = 64;

/// Write every byte of every string in `batch` through gathered sendmsg()
/// calls — the whole accumulated queue usually goes out in ONE syscall.
/// EINTR retries immediately, transient pressure retries after a pause, a
/// fatal errno returns false with `error` describing it.
bool send_gathered(int fd, const std::vector<std::string>& batch,
                   std::string* error) {
  std::size_t index = 0;  // first message not yet fully written
  std::size_t skip = 0;   // bytes of batch[index] already written
  while (index < batch.size()) {
    iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    for (std::size_t i = index; i < batch.size() && iovcnt < kMaxIov; ++i) {
      const std::string& message = batch[i];
      const std::size_t offset = (i == index) ? skip : 0;
      iov[iovcnt].iov_base = const_cast<char*>(message.data()) + offset;
      iov[iovcnt].iov_len = message.size() - offset;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      switch (wire::classify_io_errno(errno)) {
        case wire::IoClass::kRetry:
          continue;
        case wire::IoClass::kTransient:
          transient_pause();
          continue;
        case wire::IoClass::kFatal:
          *error = std::string("send: ") + std::strerror(errno);
          return false;
      }
    }
    // Advance past whatever the kernel took (partial writes land mid-string).
    std::size_t advanced = static_cast<std::size_t>(n);
    while (index < batch.size()) {
      const std::size_t remaining = batch[index].size() - skip;
      if (advanced < remaining) {
        skip += advanced;
        break;
      }
      advanced -= remaining;
      skip = 0;
      ++index;
    }
  }
  return true;
}

}  // namespace

WireMode wire_mode_from_string(const std::string& name) {
  if (name == "auto") return WireMode::kAuto;
  if (name == "line") return WireMode::kLineJson;
  if (name == "binary") return WireMode::kBinary;
  throw std::invalid_argument("--wire must be auto, line, or binary");
}

TcpBackend::TcpBackend(std::string name, std::uint16_t port, std::string host,
                       WireMode mode, Registry* metrics)
    : name_(std::move(name)),
      host_(std::move(host)),
      port_(port),
      mode_(mode),
      metrics_(metrics),
      backoff_rng_(jitter_seed(name_)) {}

TcpBackend::TcpBackend(std::string name, int connected_fd, WireMode mode,
                       Registry* metrics)
    : name_(std::move(name)),
      host_("adopted"),
      port_(0),
      mode_(mode),
      metrics_(metrics),
      adopted_(true),
      adopted_fd_(connected_fd),
      backoff_rng_(jitter_seed(name_)) {}

Registry& TcpBackend::metrics_registry() const {
  return metrics_ != nullptr ? *metrics_ : global_registry();
}

TcpBackend::~TcpBackend() {
  std::unique_lock<std::mutex> lock(mutex_);
  teardown_locked("backend shut down");
  reap_locked(lock);
  if (adopted_fd_ >= 0) {
    ::close(adopted_fd_);  // adopted but never used
    adopted_fd_ = -1;
  }
}

bool TcpBackend::connect_locked(std::string* error) {
  if (dial_locked(error)) {
    // Success resets the backoff ladder; the next failure starts small again.
    connect_failure_streak_ = 0;
    next_dial_at_ms_ = 0;
    metrics_registry().set_gauge("wire.backoff_ms", 0.0);
    metrics_registry().count("wire.reconnects");
    return true;
  }
  ++stats_.connect_failures;
  metrics_registry().count("wire.connect_failures");
  ++connect_failure_streak_;
  const std::uint64_t shift =
      std::min<std::uint64_t>(connect_failure_streak_ - 1, 20);
  const std::uint64_t window = std::min<std::uint64_t>(
      reconnect_policy_.max_ms, reconnect_policy_.base_ms << shift);
  // Uniform in [window/2, window]: enough spread that backends dialing the
  // same recovered replica never thunder in phase, deterministic per name.
  backoff_rng_ = splitmix64(backoff_rng_);
  const std::uint64_t wait =
      window == 0 ? 0 : window / 2 + backoff_rng_ % (window / 2 + 1);
  next_dial_at_ms_ = now_steady_ms() + wait;
  metrics_registry().set_gauge("wire.backoff_ms", static_cast<double>(wait));
  return false;
}

bool TcpBackend::dial_locked(std::string* error) {
  int fd = -1;
  if (adopted_) {
    if (adopted_fd_ < 0) {
      *error = "adopted connection lost";
      return false;
    }
    fd = adopted_fd_;
    adopted_fd_ = -1;
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      *error = "bad host '" + host_ + "'";
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int saved = errno;
      ::close(fd);
      *error = std::string("connect: ") + std::strerror(saved);
      return false;
    }
    // Messages are small and latency-sensitive; never wait on Nagle.  (The
    // writer's own batching already coalesces what can be coalesced.)
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  std::string preamble;
  if (!negotiate(fd, &preamble, error)) {
    ::close(fd);
    return false;
  }

  fd_ = fd;
  ++stats_.reconnects;
  const std::uint64_t epoch = epoch_;
  const bool binary = binary_;
  reader_ = std::thread([this, fd, epoch, binary,
                         carried = std::move(preamble)]() mutable {
    reader_loop(fd, epoch, binary, std::move(carried));
  });
  writer_ = std::thread([this, fd, epoch] { writer_loop(fd, epoch); });
  return true;
}

bool TcpBackend::negotiate(int fd, std::string* preamble, std::string* error) {
  binary_ = false;
  crc_ = false;
  if (mode_ == WireMode::kLineJson) return true;

  // Always ask for CRC trailers alongside frames; a server that predates
  // them ignores the extra key and its plain ack declines cleanly.
  std::string hello = wire::hello_line(/*want_crc=*/true);
  hello.push_back('\n');
  std::size_t sent = 0;
  while (sent < hello.size()) {
    const ssize_t n =
        ::send(fd, hello.data() + sent, hello.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      switch (wire::classify_io_errno(errno)) {
        case wire::IoClass::kRetry:
          continue;
        case wire::IoClass::kTransient:
          transient_pause();
          continue;
        case wire::IoClass::kFatal:
          *error = std::string("handshake send: ") + std::strerror(errno);
          return false;
      }
    }
    sent += static_cast<std::size_t>(n);
  }

  // Read exactly one response line; bytes after the newline (a fast server's
  // first frames) are carried over to the reader thread, never dropped.
  std::string buffer;
  std::size_t nl;
  char chunk[512];
  while ((nl = buffer.find('\n')) == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) {
      *error = "handshake: peer closed the connection";
      return false;
    }
    if (n < 0) {
      switch (wire::classify_io_errno(errno)) {
        case wire::IoClass::kRetry:
          continue;
        case wire::IoClass::kTransient:
          transient_pause();
          continue;
        case wire::IoClass::kFatal:
          *error = std::string("handshake read: ") + std::strerror(errno);
          return false;
      }
      continue;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > (1u << 20)) {
      *error = "handshake: oversized response";
      return false;
    }
  }
  const std::string line = buffer.substr(0, nl);
  *preamble = buffer.substr(nl + 1);

  if (wire::is_hello_ack(line)) {
    binary_ = true;
    crc_ = wire::ack_grants_crc(line);
    return true;
  }
  if (mode_ == WireMode::kBinary) {
    *error = "server declined binary framing";
    return false;
  }
  // An older server answered the hello with its usual typed parse error —
  // that rejection IS the fallback signal.  Drop it (it answers no queued
  // request) and stay on line-JSON.
  return true;
}

void TcpBackend::fail_pending_locked(const std::string& what) {
  for (std::promise<std::string>& promise : pending_fifo_) {
    promise.set_exception(std::make_exception_ptr(BackendError(name_, what)));
  }
  pending_fifo_.clear();
  for (auto& [id, promise] : pending_by_id_) {
    promise.set_exception(std::make_exception_ptr(BackendError(name_, what)));
  }
  pending_by_id_.clear();
}

void TcpBackend::teardown_locked(const std::string& what) {
  if (fd_ >= 0) {
    // Wake both IO threads out of their blocking syscalls.  Neither thread
    // closes the descriptor — reap_locked does, after both have joined, so a
    // thread can never race a close() and read from a recycled fd number.
    ::shutdown(fd_, SHUT_RDWR);
    dead_fd_ = fd_;
    fd_ = -1;
  }
  ++epoch_;  // stale reader/writer loops notice and exit
  binary_ = false;
  crc_ = false;
  sendq_.clear();
  fail_pending_locked(what);
  sendq_cv_.notify_all();
}

void TcpBackend::reap_locked(std::unique_lock<std::mutex>& lock) {
  // Swap the threads out under the lock, join outside it: the exiting
  // threads take the mutex for their own cleanup.
  std::thread reader;
  std::thread writer;
  reader.swap(reader_);
  writer.swap(writer_);
  const int dead = dead_fd_;
  dead_fd_ = -1;
  lock.unlock();
  if (reader.joinable()) reader.join();
  if (writer.joinable()) writer.join();
  if (dead >= 0) ::close(dead);
  lock.lock();
}

void TcpBackend::reader_loop(int fd, std::uint64_t epoch, bool binary,
                             std::string preamble) {
  std::string buffer = std::move(preamble);
  std::size_t start = 0;
  char chunk[1 << 16];
  std::string failure = "connection lost";
  bool desynced = false;
  for (;;) {
    // Drain everything already buffered (including the handshake carryover
    // on the first pass) before blocking for more bytes.
    if (binary) {
      wire::Frame frame;
      std::string error;
      for (;;) {
        const wire::DecodeStatus status =
            wire::decode_frame(buffer, &start, &frame, &error);
        if (status == wire::DecodeStatus::kNeedMore) break;
        if (status == wire::DecodeStatus::kBad) {
          failure = "frame error: " + error;
          desynced = true;
          break;
        }
        if (status == wire::DecodeStatus::kCorrupt) {
          // Damaged payload behind an intact length prefix: fail exactly
          // this request (the router turns it into failover) and keep the
          // connection — the stream never desynchronized.
          metrics_registry().count("wire.crc_rejected");
          std::lock_guard<std::mutex> lock(mutex_);
          if (epoch_ != epoch) return;
          const auto it = pending_by_id_.find(frame.id);
          if (it == pending_by_id_.end()) continue;
          it->second.set_exception(std::make_exception_ptr(
              BackendError(name_, "response frame failed crc check")));
          pending_by_id_.erase(it);
          continue;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (epoch_ != epoch) return;  // torn down; a newer connection owns state
        const auto it = pending_by_id_.find(frame.id);
        if (it == pending_by_id_.end()) continue;  // unsolicited id; drop
        it->second.set_value(std::move(frame.payload));
        pending_by_id_.erase(it);
      }
      if (desynced) break;
    } else {
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::string line = buffer.substr(start, nl - start);
        std::lock_guard<std::mutex> lock(mutex_);
        if (epoch_ != epoch) return;
        if (pending_fifo_.empty()) continue;  // unsolicited line; drop
        pending_fifo_.front().set_value(std::move(line));
        pending_fifo_.pop_front();
      }
    }
    buffer.erase(0, start);
    start = 0;

    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;  // EOF: peer closed
    if (n < 0) {
      const wire::IoClass io = wire::classify_io_errno(errno);
      if (io == wire::IoClass::kRetry) continue;  // EINTR is not a dead peer
      if (io == wire::IoClass::kTransient) {
        transient_pause();
        continue;
      }
      failure = std::string("read: ") + std::strerror(errno);
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (epoch_ == epoch) teardown_locked(failure);
}

void TcpBackend::writer_loop(int fd, std::uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    sendq_cv_.wait(lock, [&] { return epoch_ != epoch || !sendq_.empty(); });
    if (epoch_ != epoch) return;
    std::vector<std::string> batch;
    batch.swap(sendq_);
    lock.unlock();
    std::string error;
    const bool ok = send_gathered(fd, batch, &error);
    lock.lock();
    if (epoch_ != epoch) return;  // torn down underneath the write
    if (!ok) {
      teardown_locked(error);
      return;
    }
    ++stats_.batches;
    stats_.messages += batch.size();
  }
}

std::future<std::string> TcpBackend::submit(std::string line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();

  std::unique_lock<std::mutex> lock(mutex_);
  if (fd_ < 0) {
    // Reap the previous connection (join threads, close the fd) before
    // dialing a new one.
    reap_locked(lock);
    if (fd_ < 0) {  // nobody else reconnected while reap dropped the lock
      // Inside a backoff window, fail fast instead of re-dialing: this is
      // what keeps a dead (or just-recovering) replica from being hammered
      // by every submit.  The router reads the BackendError as "down".
      const std::uint64_t now = now_steady_ms();
      if (!adopted_ && next_dial_at_ms_ > now) {
        ++stats_.backoff_skips;
        promise.set_exception(std::make_exception_ptr(BackendError(
            name_, "reconnect backoff: next dial in " +
                       std::to_string(next_dial_at_ms_ - now) + " ms")));
        return future;
      }
      std::string error;
      if (!connect_locked(&error)) {
        promise.set_exception(
            std::make_exception_ptr(BackendError(name_, error)));
        return future;
      }
    }
  }

  ++stats_.requests;
  if (binary_) {
    const std::uint64_t id = next_id_++;
    std::string frame;
    wire::append_frame(frame, wire::FrameType::kRequest, id, line, crc_);
    pending_by_id_.emplace(id, std::move(promise));
    sendq_.push_back(std::move(frame));
  } else {
    // Queue the promise BEFORE the bytes can hit the wire: the response can
    // race back on the reader thread the instant the last byte lands.
    line.push_back('\n');
    pending_fifo_.push_back(std::move(promise));
    sendq_.push_back(std::move(line));
  }
  sendq_cv_.notify_one();
  return future;
}

void TcpBackend::set_port(std::uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  port_ = port;
  // A respawned replica is a fresh endpoint: forget the old one's backoff so
  // the first submit dials immediately.
  connect_failure_streak_ = 0;
  next_dial_at_ms_ = 0;
  if (fd_ >= 0) {
    teardown_locked("endpoint moved to port " + std::to_string(port));
  }
}

void TcpBackend::set_reconnect_policy(ReconnectPolicy policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  reconnect_policy_ = policy;
  connect_failure_streak_ = 0;
  next_dial_at_ms_ = 0;
}

std::uint16_t TcpBackend::port() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return port_;
}

TcpBackend::Stats TcpBackend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats snapshot = stats_;
  snapshot.binary = fd_ >= 0 && binary_;
  snapshot.crc = fd_ >= 0 && crc_;
  return snapshot;
}

}  // namespace pglb
