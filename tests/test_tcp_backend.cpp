// TcpBackend transport behavior against a scripted fake server (docs/WIRE.md):
// negotiation (binary upgrade, line fallback, refused-handshake failure),
// out-of-order response matching, frames split across reads, torn streams,
// reconnect-after-failure, and the regression tests for the two blocking-IO
// bugs — EINTR on read treated as connection loss, and submit() blocking
// behind a full socket buffer.

#include <gtest/gtest.h>

#include <csignal>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/tcp_backend.hpp"
#include "obs/registry.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"

#include <netinet/in.h>

namespace pglb {
namespace {

// --- raw-fd helpers for the scripted server side ----------------------------

bool write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Read up to (and excluding) the next '\n'.  Byte-at-a-time keeps the fake
/// server stateless: no read-ahead buffer to lose bytes in.
std::optional<std::string> read_line_fd(int fd) {
  std::string line;
  char byte = 0;
  while (true) {
    const ssize_t got = ::read(fd, &byte, 1);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return std::nullopt;
    if (byte == '\n') return line;
    line.push_back(byte);
  }
}

/// `carry` holds bytes read past the returned frame — the client coalesces
/// frames into gathered writes, so one read() routinely returns several.
std::optional<wire::Frame> read_frame_fd(int fd, std::string* carry) {
  std::size_t offset = 0;
  wire::Frame frame;
  while (true) {
    switch (wire::decode_frame(*carry, &offset, &frame, nullptr)) {
      case wire::DecodeStatus::kFrame:
        carry->erase(0, offset);
        return frame;
      case wire::DecodeStatus::kBad:
        return std::nullopt;
      case wire::DecodeStatus::kCorrupt:
        // Framing is intact: drop the damaged frame and decode what follows
        // from `carry` before blocking in read() for more.
        carry->erase(0, offset);
        offset = 0;
        continue;
      case wire::DecodeStatus::kNeedMore:
        break;
    }
    char chunk[256];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return std::nullopt;
    carry->append(chunk, static_cast<std::size_t>(got));
  }
}

bool write_response_frame(int fd, std::uint64_t id, std::string_view payload) {
  std::string encoded;
  wire::append_frame(encoded, wire::FrameType::kResponse, id, payload);
  return write_all(fd, encoded);
}

/// Server half of the hello handshake: consume the hello line, send the ack.
bool accept_upgrade(int fd) {
  const auto hello = read_line_fd(fd);
  if (!hello || !wire::is_hello_line(*hello)) return false;
  return write_all(fd, wire::hello_ack_line() + "\n");
}

struct FdPair {
  int client = -1;
  int server = -1;
};

FdPair make_fd_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {fds[0], fds[1]};
}

/// The writer thread bumps Stats::messages AFTER the kernel accepted the
/// bytes, which can lag the response round trip by a beat — poll briefly
/// before asserting on it.
TcpBackend::Stats settled_stats(const TcpBackend& backend,
                                std::uint64_t messages) {
  for (int i = 0; i < 500 && backend.stats().messages < messages; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return backend.stats();
}

/// Loopback listener on an OS-chosen ephemeral port (reconnect tests).
int listen_ephemeral(std::uint16_t* port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(listener, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&address),
                   sizeof(address)),
            0);
  EXPECT_EQ(::listen(listener, 4), 0);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  EXPECT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len),
            0);
  *port = ntohs(bound.sin_port);
  return listener;
}

// --- transports -------------------------------------------------------------

TEST(TcpBackendLine, LineModeIsByteIdenticalLegacy) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    // No hello in kLineJson mode: the FIRST bytes on the wire must be the
    // request line itself, exactly as the pre-upgrade protocol sent it.
    const auto first = read_line_fd(fd);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, R"({"id":"a"})");
    const auto second = read_line_fd(fd);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, R"({"id":"b"})");
    write_all(fd, "ra\nrb\n");
    write_all(fd, "unsolicited\n");  // no pending request: must be dropped
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kLineJson);
  auto first = backend.submit(R"({"id":"a"})");
  auto second = backend.submit(R"({"id":"b"})");
  EXPECT_EQ(first.get(), "ra");
  EXPECT_EQ(second.get(), "rb");
  EXPECT_FALSE(backend.stats().binary);
  EXPECT_EQ(backend.stats().requests, 2u);
  server.join();
}

TEST(TcpBackendBinary, UpgradesAndMatchesOutOfOrderResponses) {
  const FdPair fds = make_fd_pair();
  std::atomic<bool> stats_checked{false};
  std::thread server([fd = fds.server, &stats_checked] {
    ASSERT_TRUE(accept_upgrade(fd));
    std::string carry;
    std::vector<wire::Frame> requests;
    for (int i = 0; i < 3; ++i) {
      const auto frame = read_frame_fd(fd, &carry);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->type, wire::FrameType::kRequest);
      requests.push_back(*frame);
    }
    // Answer in REVERSE order: only the id matching can sort this out.
    for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
      write_response_frame(fd, it->id, "response to " + it->payload);
    }
    // Keep the connection open until the main thread has read stats():
    // Stats::binary reports on the LIVE connection, and closing here would
    // race the reader's EOF teardown against that check.
    while (!stats_checked.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kAuto);
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(backend.submit("req" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(),
              "response to req" + std::to_string(i));
  }
  const TcpBackend::Stats stats = settled_stats(backend, 3);
  stats_checked.store(true);
  EXPECT_TRUE(stats.binary);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_GE(stats.batches, 1u);
  server.join();
}

TEST(TcpBackendNegotiation, AutoFallsBackToLinesOnTypedError) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    // A pre-wire server: the hello is just an unparseable request to it.
    const auto hello = read_line_fd(fd);
    ASSERT_TRUE(hello.has_value());
    EXPECT_TRUE(wire::is_hello_line(*hello));
    write_all(fd, serialize_error("", "unknown key: hello") + "\n");
    const auto line = read_line_fd(fd);  // client downshifted to line-JSON
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "legacy request");
    write_all(fd, "legacy response\n");
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kAuto);
  EXPECT_EQ(backend.submit("legacy request").get(), "legacy response");
  EXPECT_FALSE(backend.stats().binary);
  server.join();
}

TEST(TcpBackendNegotiation, BinaryModeRefusalIsABackendError) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    const auto hello = read_line_fd(fd);
    ASSERT_TRUE(hello.has_value());
    write_all(fd, serialize_error("", "unknown key: hello") + "\n");
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kBinary);
  EXPECT_THROW(backend.submit("req").get(), BackendError);
  server.join();
}

TEST(TcpBackendBinary, ResponsesSplitAcrossReadsStillMatch) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    ASSERT_TRUE(accept_upgrade(fd));
    std::string carry;
    const auto request = read_frame_fd(fd, &carry);
    ASSERT_TRUE(request.has_value());
    std::string encoded;
    wire::append_frame(encoded, wire::FrameType::kResponse, request->id,
                       R"({"id":"torn-but-whole"})");
    // Dribble the frame out in three writes with pauses: the client's reader
    // must treat short reads mid-header and mid-payload as "need more".
    write_all(fd, encoded.substr(0, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_all(fd, encoded.substr(7, 17));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_all(fd, encoded.substr(24));
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kAuto);
  EXPECT_EQ(backend.submit("req").get(), R"({"id":"torn-but-whole"})");
  server.join();
}

TEST(TcpBackendBinary, TornMidFrameFailsAllPending) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    ASSERT_TRUE(accept_upgrade(fd));
    std::string carry;
    const auto first = read_frame_fd(fd, &carry);
    ASSERT_TRUE(first.has_value());
    const auto second = read_frame_fd(fd, &carry);
    ASSERT_TRUE(second.has_value());
    // Half a response header, then a hard close: the stream dies mid-frame.
    std::string encoded;
    wire::append_frame(encoded, wire::FrameType::kResponse, first->id, "lost");
    write_all(fd, encoded.substr(0, wire::kHeaderSize / 2));
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kAuto);
  auto first = backend.submit("one");
  auto second = backend.submit("two");
  EXPECT_THROW(first.get(), BackendError);
  EXPECT_THROW(second.get(), BackendError);
  server.join();
}

TEST(TcpBackendBinary, UnsolicitedResponseIdIsIgnored) {
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    ASSERT_TRUE(accept_upgrade(fd));
    std::string carry;
    const auto request = read_frame_fd(fd, &carry);
    ASSERT_TRUE(request.has_value());
    write_response_frame(fd, request->id + 999, "nobody asked");
    write_response_frame(fd, request->id, "the real one");
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kAuto);
  EXPECT_EQ(backend.submit("req").get(), "the real one");
  server.join();
}

TEST(TcpBackendAdopted, BrokenAdoptedStreamFailsFastForever) {
  const FdPair fds = make_fd_pair();
  ::close(fds.server);  // the peer is gone before the first submit
  TcpBackend backend("b0", fds.client, WireMode::kLineJson);
  EXPECT_THROW(backend.submit("one").get(), BackendError);
  // No endpoint to reconnect to: later submits fail instead of hanging.
  EXPECT_THROW(backend.submit("two").get(), BackendError);
}

// --- the submit()-blocks-behind-a-full-socket regression --------------------

TEST(TcpBackendWriteQueue, SubmitNeverBlocksOnAFullSocketBuffer) {
  constexpr int kRequests = 256;
  const std::string big_line(8192, 'x');

  const FdPair fds = make_fd_pair();
  // Shrink both buffers so the burst cannot fit in kernel space: the writer
  // thread WILL block in sendmsg() while the server withholds its reads.
  const int small = 4096;
  ::setsockopt(fds.client, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds.server, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::atomic<bool> all_submitted{false};
  std::thread server([fd = fds.server, &all_submitted] {
    // Withhold ALL reads until every submit() has returned.  The old
    // implementation sent under the submit lock, so submit #k would block
    // here forever once the socket buffer filled — this test would hang.
    while (!all_submitted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string responses;
    for (int i = 0; i < kRequests; ++i) {
      const auto line = read_line_fd(fd);
      ASSERT_TRUE(line.has_value()) << "request " << i;
      responses += "r" + std::to_string(i) + "\n";
    }
    write_all(fd, responses);
    ::close(fd);
  });

  TcpBackend backend("b0", fds.client, WireMode::kLineJson);
  std::vector<std::future<std::string>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(backend.submit(big_line));  // must never block
  }
  all_submitted.store(true);

  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(),
              "r" + std::to_string(i));
  }
  const TcpBackend::Stats stats =
      settled_stats(backend, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kRequests));
  // The whole point of the aggregation queue: a burst reaches the kernel in
  // far fewer gathered writes than messages.
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kRequests) / 4);
  server.join();
}

// --- the EINTR-on-read regression -------------------------------------------

extern "C" void eintr_test_noop_handler(int) {}

TEST(TcpBackendSignals, ReaderRetriesEintrInsteadOfTearingDown) {
  // A handler without SA_RESTART makes blocking reads return EINTR for real.
  struct sigaction action {};
  action.sa_handler = eintr_test_noop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  sigset_t usr1;
  sigemptyset(&usr1);
  sigaddset(&usr1, SIGUSR1);
  sigset_t original_mask;

  // Spawn the fake server with SIGUSR1 blocked (it inherits the mask), so
  // process-directed signals can only land on the backend's IO threads.
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &usr1, &original_mask), 0);
  const FdPair fds = make_fd_pair();
  std::thread server([fd = fds.server] {
    const auto line = read_line_fd(fd);
    ASSERT_TRUE(line.has_value());
    // Hold the response back while the test showers the process with
    // signals: the client's reader sits in a blocking read the whole time.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    write_all(fd, "survived\n");
    ::close(fd);
  });
  // Unblock before the first submit so the reader/writer threads it spawns
  // inherit an UNBLOCKED mask...
  ASSERT_EQ(::pthread_sigmask(SIG_SETMASK, &original_mask, nullptr), 0);
  TcpBackend backend("b0", fds.client, WireMode::kLineJson);
  auto future = backend.submit("ping");
  // ...then block in this thread too: the IO threads are now the only
  // delivery targets for a process-directed SIGUSR1.
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &usr1, nullptr), 0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(::kill(::getpid(), SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // The regression: an EINTR-interrupted read was treated as connection loss,
  // failing this future with BackendError instead of answering it.
  EXPECT_EQ(future.get(), "survived");

  server.join();
  ASSERT_EQ(::pthread_sigmask(SIG_SETMASK, &original_mask, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
}

// --- reconnect and endpoint moves -------------------------------------------

/// One scripted binary-mode exchange per accepted connection, then close —
/// the client discovers the loss via EOF (reader) or a failed send (writer).
void serve_one_binary_connection(int listener, const std::string& reply) {
  const int fd = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(accept_upgrade(fd));
  std::string carry;
  const auto request = read_frame_fd(fd, &carry);
  ASSERT_TRUE(request.has_value());
  write_response_frame(fd, request->id, reply);
  ::close(fd);
}

TEST(TcpBackendReconnect, ReconnectsAndRenegotiatesAfterPeerCloses) {
  std::uint16_t port = 0;
  const int listener = listen_ephemeral(&port);
  std::thread server([listener] {
    serve_one_binary_connection(listener, "first life");
    serve_one_binary_connection(listener, "second life");
  });

  TcpBackend backend("b0", port);
  EXPECT_EQ(backend.submit("one").get(), "first life");
  // The peer closed after answering.  Whether the reader has noticed yet or
  // the next submit trips over the dead stream, the request after the close
  // must be served by a fresh, re-negotiated connection.
  for (int attempt = 0;; ++attempt) {
    try {
      EXPECT_EQ(backend.submit("two").get(), "second life");
      break;
    } catch (const BackendError&) {
      // The submit raced the teardown; the reconnect happens on retry.
      ASSERT_LT(attempt, 10);
    }
  }
  // No stats().binary check here: the peer closes right after answering, so
  // by now the reader may already have torn the connection down.
  EXPECT_EQ(backend.stats().reconnects, 2u);
  server.join();
  ::close(listener);
}

TEST(TcpBackendReconnect, SetPortMovesTheEndpoint) {
  std::uint16_t old_port = 0;
  std::uint16_t new_port = 0;
  const int old_listener = listen_ephemeral(&old_port);
  const int new_listener = listen_ephemeral(&new_port);
  std::thread old_server(
      [old_listener] { serve_one_binary_connection(old_listener, "old home"); });
  std::thread new_server(
      [new_listener] { serve_one_binary_connection(new_listener, "new home"); });

  TcpBackend backend("b0", old_port);
  EXPECT_EQ(backend.submit("one").get(), "old home");
  EXPECT_EQ(backend.port(), old_port);

  // An autoscaled respawn: same fleet name (same rendezvous keys), new
  // ephemeral endpoint.
  backend.set_port(new_port);
  EXPECT_EQ(backend.port(), new_port);
  EXPECT_EQ(backend.submit("two").get(), "new home");
  EXPECT_EQ(backend.stats().reconnects, 2u);

  old_server.join();
  new_server.join();
  ::close(old_listener);
  ::close(new_listener);
}

// --- jittered exponential reconnect backoff ---------------------------------

/// A loopback port that refuses connections: bind it, read it, free it.
std::uint16_t dead_port() {
  std::uint16_t port = 0;
  const int listener = listen_ephemeral(&port);
  ::close(listener);
  return port;
}

TEST(TcpBackendBackoff, FailsFastInsideTheWindowAndDoublesOnRepeat) {
  const std::uint16_t port = dead_port();
  Registry registry;
  TcpBackend backend("b0", port, "127.0.0.1", WireMode::kAuto, &registry);
  backend.set_reconnect_policy({.base_ms = 200, .max_ms = 800});

  // First submit dials the dead port, fails, and arms a [100, 200] ms window.
  EXPECT_THROW(backend.submit("one").get(), BackendError);
  EXPECT_EQ(backend.stats().connect_failures, 1u);
  EXPECT_EQ(registry.counter("wire.connect_failures"), 1u);
  const double first_wait = registry.gauge("wire.backoff_ms");
  EXPECT_GE(first_wait, 100.0);
  EXPECT_LE(first_wait, 200.0);

  // Inside the window, submits fail fast with a typed backoff error — the
  // dead endpoint is NOT re-dialed (no reconnect storm).
  try {
    backend.submit("two").get();
    FAIL() << "expected a fail-fast BackendError inside the backoff window";
  } catch (const BackendError& error) {
    EXPECT_NE(std::string(error.what()).find("backoff"), std::string::npos);
  }
  EXPECT_EQ(backend.stats().backoff_skips, 1u);
  EXPECT_EQ(backend.stats().connect_failures, 1u);  // still the one dial

  // Once the window expires the next submit really dials again; the second
  // consecutive failure doubles the window to [200, 400] ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(220));
  EXPECT_THROW(backend.submit("three").get(), BackendError);
  EXPECT_EQ(backend.stats().connect_failures, 2u);
  const double second_wait = registry.gauge("wire.backoff_ms");
  EXPECT_GE(second_wait, 200.0);
  EXPECT_LE(second_wait, 400.0);

  // A respawned replica moves the endpoint: set_port forgets the backoff, the
  // next submit dials immediately, and success resets the whole ladder.
  std::uint16_t live_port = 0;
  const int listener = listen_ephemeral(&live_port);
  std::thread server(
      [listener] { serve_one_binary_connection(listener, "recovered"); });
  backend.set_port(live_port);
  EXPECT_EQ(backend.submit("four").get(), "recovered");
  EXPECT_EQ(backend.stats().reconnects, 1u);
  EXPECT_EQ(registry.gauge("wire.backoff_ms"), 0.0);
  EXPECT_EQ(registry.counter("wire.reconnects"), 1u);
  server.join();
  ::close(listener);
}

TEST(TcpBackendBackoff, JitterIsSeededPerNameSoDrillsReplay) {
  // Same name + same policy => bit-identical jitter draws (the splitmix64
  // chain is seeded off the backend name, docs/CHAOS.md).  Distinct fleet
  // names walk distinct chains, so a fleet never thunders in phase.
  const std::uint16_t port = dead_port();
  const ReconnectPolicy policy{.base_ms = 400, .max_ms = 6400};
  Registry first_registry;
  Registry second_registry;
  TcpBackend first("replica-7", port, "127.0.0.1", WireMode::kAuto,
                   &first_registry);
  TcpBackend second("replica-7", port, "127.0.0.1", WireMode::kAuto,
                    &second_registry);
  first.set_reconnect_policy(policy);
  second.set_reconnect_policy(policy);
  EXPECT_THROW(first.submit("x").get(), BackendError);
  EXPECT_THROW(second.submit("x").get(), BackendError);
  const double wait = first_registry.gauge("wire.backoff_ms");
  EXPECT_EQ(wait, second_registry.gauge("wire.backoff_ms"));
  EXPECT_GE(wait, 200.0);
  EXPECT_LE(wait, 400.0);
}

}  // namespace
}  // namespace pglb
