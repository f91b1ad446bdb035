#pragma once
// TCP backend: one `pglb_serve --listen <port>` process behind the Backend
// interface, multiplexed over a single persistent connection.
//
// Transport negotiation (docs/WIRE.md): on connect the backend sends one
// `{"hello":...}` line.  A frame-aware server acks and the connection speaks
// length-prefixed, request-id-tagged binary frames — many requests in flight,
// responses matched by id in ANY order, so one slow request never stalls the
// answers behind it.  An older server rejects the hello with its usual typed
// parse error, and the backend falls back to plain line-JSON with FIFO
// matching, byte-identical to the pre-upgrade protocol.
//
// Write path (the Grappa aggregator idiom): submit() never touches the
// socket.  It enqueues the encoded frame/line on a per-connection send queue
// and returns; a dedicated writer thread drains the queue, coalescing
// whatever has accumulated into one gathered sendmsg() per wakeup.  Callers
// are therefore never blocked behind a full socket buffer, and bursts of
// small requests cost one syscall, not one each.
//
// Failure semantics: a fatal read or write error fails EVERY pending promise
// with BackendError (for line mode the ordering is unrecoverable; for binary
// mode the peer is simply gone) and tears the connection down; the next
// submit() transparently reconnects and re-negotiates.  EINTR retries the
// syscall; transient resource pressure (EAGAIN/ENOBUFS/ENOMEM) retries after
// a breather — neither is a dead peer (wire::classify_io_errno).  The router
// turns BackendErrors into failover + health bookkeeping.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/backend.hpp"

namespace pglb {

class Registry;

/// Which transport submit() uses once connected.
enum class WireMode {
  kAuto,      ///< hello handshake; binary if acked, line-JSON otherwise
  kLineJson,  ///< never send a hello: byte-identical legacy protocol
  kBinary,    ///< hello required; a declined handshake is a connect failure
};

/// Parse a --wire value: "auto", "line", or "binary".  Throws
/// std::invalid_argument for anything else.
WireMode wire_mode_from_string(const std::string& name);

/// Jittered exponential backoff between reconnect attempts.  Without it a
/// dead replica is re-dialed on EVERY submit — a tight retry loop that turns
/// into a reconnect storm the moment the replica comes back (docs/CHAOS.md).
/// The window doubles per consecutive connect failure up to `max_ms`, and
/// each wait is drawn uniformly from [window/2, window] with a splitmix64
/// chain seeded off the backend name, so a fleet's backends never thunder in
/// phase yet every drill replays identically.
struct ReconnectPolicy {
  std::uint64_t base_ms = 100;
  std::uint64_t max_ms = 5000;
};

class TcpBackend : public Backend {
 public:
  /// Does not connect — the first submit() does (so a fleet can be declared
  /// before its processes finish starting).  `metrics` (optional) receives
  /// the wire.* counters/gauges; nullptr falls back to global_registry().
  TcpBackend(std::string name, std::uint16_t port,
             std::string host = "127.0.0.1", WireMode mode = WireMode::kAuto,
             Registry* metrics = nullptr);

  /// Adopt an already-connected descriptor (tests: one end of a socketpair).
  /// The backend owns and eventually closes `connected_fd`.  Negotiation
  /// still happens on the first submit().  No reconnect on failure — once an
  /// adopted stream breaks, every later submit fails with BackendError.
  TcpBackend(std::string name, int connected_fd, WireMode mode,
             Registry* metrics = nullptr);

  ~TcpBackend() override;

  TcpBackend(const TcpBackend&) = delete;
  TcpBackend& operator=(const TcpBackend&) = delete;

  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string line) override;

  /// Re-point the backend at a new port (an autoscaled replica respawned on
  /// a fresh ephemeral port keeps its fleet name — and its rendezvous cache
  /// keys — while the endpoint moves).  Any live connection is torn down;
  /// pending requests fail with BackendError; the next submit() reconnects.
  void set_port(std::uint16_t port);
  std::uint16_t port() const;

  /// Replace the reconnect backoff policy (tests shrink the windows).  Also
  /// resets any backoff currently in force.
  void set_reconnect_policy(ReconnectPolicy policy);

  /// Transport counters (docs/WIRE.md), mostly for tests and debugging.
  struct Stats {
    std::uint64_t requests = 0;    ///< lines/frames accepted by submit()
    std::uint64_t batches = 0;     ///< writer wakeups that reached the kernel
    std::uint64_t messages = 0;    ///< frames/lines flushed inside batches
    std::uint64_t reconnects = 0;  ///< successful (re)connects
    std::uint64_t connect_failures = 0;  ///< failed dial/negotiate attempts
    std::uint64_t backoff_skips = 0;  ///< submits failed fast inside a window
    bool binary = false;           ///< live connection negotiated frames
    bool crc = false;              ///< live connection negotiated CRC frames
  };
  Stats stats() const;

 private:
  bool connect_locked(std::string* error);
  bool dial_locked(std::string* error);
  bool negotiate(int fd, std::string* preamble, std::string* error);
  void teardown_locked(const std::string& what);
  void fail_pending_locked(const std::string& what);
  void reap_locked(std::unique_lock<std::mutex>& lock);
  void reader_loop(int fd, std::uint64_t epoch, bool binary,
                   std::string preamble);
  void writer_loop(int fd, std::uint64_t epoch);

  Registry& metrics_registry() const;

  std::string name_;
  std::string host_;
  std::uint16_t port_;
  WireMode mode_;
  Registry* metrics_ = nullptr;  // nullptr = global_registry()
  bool adopted_ = false;

  mutable std::mutex mutex_;
  int fd_ = -1;        // -1 = disconnected
  int dead_fd_ = -1;   // torn-down fd awaiting close once its threads join
  int adopted_fd_ = -1;  // handed to the ctor, consumed by the first connect
  std::uint64_t epoch_ = 0;  // bumped on every teardown; stale threads exit
  bool binary_ = false;      // negotiated mode of the live connection
  bool crc_ = false;         // negotiated CRC trailers on the live connection
  ReconnectPolicy reconnect_policy_{};
  std::uint64_t connect_failure_streak_ = 0;
  std::uint64_t next_dial_at_ms_ = 0;  // steady-clock ms; 0 = dial freely
  std::uint64_t backoff_rng_ = 0;      // splitmix64 chain for dial jitter
  std::uint64_t next_id_ = 1;
  std::deque<std::promise<std::string>> pending_fifo_;  // line mode
  std::unordered_map<std::uint64_t, std::promise<std::string>> pending_by_id_;
  std::vector<std::string> sendq_;  // encoded, ready-to-write messages
  std::condition_variable sendq_cv_;
  Stats stats_;
  std::thread reader_;
  std::thread writer_;
};

}  // namespace pglb
