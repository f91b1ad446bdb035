// pglb_serve — the planning service front-end.  Reads one JSON request per
// line (stdin by default, or a TCP socket with --listen), answers one JSON
// response per line in input order, and exits at EOF.  See docs/SERVICE.md
// for the protocol.  A connection that opens with the wire hello is upgraded
// to the multiplexed binary framing (docs/WIRE.md) unless --wire=line.
//
//   pglb_serve --threads=4 --queue=256 --scale=0.004 < requests.jsonl
//   pglb_serve --listen=7447 --threads=8 --pool-threads=4
//   pglb_serve --listen=0 --port-file=/tmp/run/b0.port   # ephemeral port
//
// --listen=0 binds an OS-chosen ephemeral port; --port-file=PATH publishes
// the chosen port atomically for whoever spawned us (the port-file
// handshake, util/portfile.hpp), so parallel CI runs never fight over a
// fixed port range.
//
// --threads is the number of concurrent request workers; --pool-threads sizes
// the planner's compute pool for proxy generation and metric reductions
// (0 = the process-wide pool, PGLB_THREADS env overrides its size).  Plans
// are bit-identical at any thread setting.
//
// A line {"type":"metrics"} returns the metrics registry (request counts,
// per-stage latency percentiles, profile-cache hit rate) without planning.
// --trace-out=FILE records spans for the whole run and writes a Chrome trace
// at EOF (stdin mode) or on SIGINT/SIGTERM (socket mode); see
// docs/OBSERVABILITY.md.
//
// Resilience flags (docs/ROBUSTNESS.md):
//   --default-timeout-ms=N  deadline for requests without their own timeout_ms
//   --shed                  shed with "overloaded" responses instead of
//                           blocking when the queue is at capacity
//
// Transport hardening (docs/CHAOS.md), socket mode only:
//   --handshake-timeout-ms=N  close a connection whose first byte has not
//                             arrived after N ms (slow-loris defense;
//                             default 10000, 0 disables)
//   --idle-timeout-ms=N       reap a connection idle for N ms after its
//                             handshake (default 0 = never)
//   --max-inflight=N          per-connection in-flight frame cap; excess
//                             frames get typed "overloaded" pushback
//                             (default 0 = unlimited)
//
// Durable warm state (docs/PERSIST.md):
//   --snapshot-dir=DIR          lazily restore DIR/warm.snap on boot (a
//                               corrupt or missing snapshot is a logged cold
//                               start, never a crash) and save the profile
//                               cache there on the SIGTERM drain / EOF path
//   --snapshot-interval-ms=N    additionally save every N ms on a dedicated
//                               timer thread, off the worker pool

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "persist/warm_state.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/portfile.hpp"

#ifdef __unix__
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <ext/stdio_filebuf.h>  // libstdc++: iostream over a file descriptor

#include "service/fdio.hpp"
#endif

using namespace pglb;

namespace {

/// Periodic warm-state saver: a dedicated timer thread (never one of the
/// request workers) that snapshots every `interval_ms` until stopped.
class PeriodicSnapshotter {
 public:
  PeriodicSnapshotter(Planner& planner, ServiceMetrics& metrics, std::string dir,
                      std::uint64_t interval_ms,
                      const dynamic::DeltaPlanner* delta = nullptr)
      : planner_(planner), metrics_(metrics), dir_(std::move(dir)), delta_(delta) {
    if (dir_.empty() || interval_ms == 0) return;
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                                [this] { return stop_; })) {
        lock.unlock();
        const auto saved = persist::save_warm_snapshot(
            planner_, dir_, &metrics_.registry(), delta_);
        if (!saved.ok) {
          std::cerr << "pglb_serve: periodic snapshot failed: " << saved.error
                    << "\n";
        }
        lock.lock();
      }
    });
  }

  ~PeriodicSnapshotter() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Planner& planner_;
  ServiceMetrics& metrics_;
  std::string dir_;
  const dynamic::DeltaPlanner* delta_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Boot-time restore: missing snapshot = quiet cold start, corrupt snapshot
/// = logged cold start with persist.snapshot_rejected bumped.
void restore_warm_state(Planner& planner, ServiceMetrics& metrics,
                        const std::string& dir,
                        dynamic::DeltaPlanner* delta = nullptr) {
  if (dir.empty()) return;
  const auto loaded =
      persist::load_warm_snapshot(planner, dir, &metrics.registry(), delta);
  if (loaded.ok) {
    std::cerr << "pglb_serve: restored snapshot generation " << loaded.generation
              << " (" << loaded.cache_entries << " cache entries, "
              << loaded.dynamic_bases << " delta bases, " << loaded.bytes << " bytes)\n";
  } else if (loaded.rejected) {
    std::cerr << "pglb_serve: snapshot rejected (" << loaded.error
              << "); cold start\n";
  }
}

void save_warm_state(Planner& planner, ServiceMetrics& metrics,
                     const std::string& dir,
                     const dynamic::DeltaPlanner* delta = nullptr) {
  if (dir.empty()) return;
  const auto saved =
      persist::save_warm_snapshot(planner, dir, &metrics.registry(), delta);
  if (saved.ok) {
    std::cerr << "pglb_serve: snapshot generation " << saved.generation
              << " written (" << saved.cache_entries << " cache entries, "
              << saved.bytes << " bytes)\n";
  } else {
    std::cerr << "pglb_serve: snapshot save failed: " << saved.error << "\n";
  }
}

#ifdef __unix__
/// Graceful-shutdown state: the handler flips the flag and closes the
/// listener, which makes the blocking accept() fail — the loop then stops
/// accepting and main drains in-flight work before exiting.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_listener_fd = -1;
volatile std::sig_atomic_t g_connection_fd = -1;

extern "C" void handle_stop_signal(int) {
  g_stop = 1;
  const int fd = g_listener_fd;
  if (fd >= 0) {
    g_listener_fd = -1;
    ::close(fd);  // async-signal-safe; unblocks accept()
  }
  // The signal may land on a worker thread, in which case the main thread's
  // blocking read on the active connection is NOT interrupted — shut the
  // connection down (async-signal-safe) so serve_stream sees EOF and the
  // drain path runs no matter which thread took the signal.
  const int conn = g_connection_fd;
  if (conn >= 0) ::shutdown(conn, SHUT_RD);
}

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: accept() must return EINTR/EBADF
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Accept TCP connections one at a time, running the protocol over each
/// connection until the peer closes it.  `port` 0 binds an OS-chosen
/// ephemeral port; a non-empty `port_file` publishes the bound port for the
/// spawner (the port-file handshake).  Serves until SIGINT or SIGTERM (0) or
/// a fatal listener error (1).
int serve_socket(PlanServer& server, int port, const std::string& port_file) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "pglb_serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int enable = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof(address)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::cerr << "pglb_serve: bind/listen on port " << port << ": "
              << std::strerror(errno) << "\n";
    ::close(listener);
    return 1;
  }
  if (port == 0) {
    // Learn which port the kernel picked.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
      std::cerr << "pglb_serve: getsockname: " << std::strerror(errno) << "\n";
      ::close(listener);
      return 1;
    }
    port = static_cast<int>(ntohs(bound.sin_port));
  }
  if (!port_file.empty() &&
      !write_port_file(port_file, static_cast<std::uint16_t>(port))) {
    std::cerr << "pglb_serve: cannot publish port to " << port_file << "\n";
    ::close(listener);
    return 1;
  }
  g_listener_fd = listener;
  install_stop_handlers();
  std::cerr << "pglb_serve: listening on 127.0.0.1:" << port << "\n";
  while (true) {
    const int connection = accept_connection(listener);
    if (g_stop) {
      if (connection >= 0) ::close(connection);
      break;
    }
    if (connection < 0) {
      const int error = errno;
      // Retrying every errno unconditionally would busy-spin on fatal ones
      // (EBADF, EINVAL).  Classify instead: EINTR retries immediately,
      // transient resource pressure retries after a breather, anything else
      // is fatal.
      if (error == EINTR) continue;
      if (error == ECONNABORTED || error == EAGAIN || error == EWOULDBLOCK ||
          error == EMFILE || error == ENFILE || error == ENOBUFS ||
          error == ENOMEM) {
        std::cerr << "pglb_serve: accept: " << std::strerror(error)
                  << " (retrying)\n";
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::cerr << "pglb_serve: accept: " << std::strerror(error) << "\n";
      g_listener_fd = -1;
      ::close(listener);
      return 1;
    }
    g_connection_fd = connection;
    // serve_fd reads the socket through a deadline-aware streambuf so a peer
    // that never sends its hello (or goes silent mid-session) is reaped by
    // --handshake-timeout-ms / --idle-timeout-ms instead of pinning the
    // accept loop forever.
    __gnu_cxx::stdio_filebuf<char> out_buf(::dup(connection), std::ios::out);
    std::ostream out(&out_buf);
    const std::size_t served = server.serve_fd(connection, out);
    ::close(connection);
    g_connection_fd = -1;
    std::cerr << "pglb_serve: connection closed after " << served << " requests\n";
  }
  // Signal path: the handler already closed the listener; drain the queue so
  // every accepted request gets its response before the process exits.
  std::cerr << "pglb_serve: stop signal received, draining\n";
  server.stop();
  // Clean shutdown: retract the published port so a spawner polling a reused
  // port dir can never adopt this (now dead) port for a future replica.
  if (!port_file.empty()) std::remove(port_file.c_str());
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    PlannerOptions planner_options;
    planner_options.proxy_scale = cli.get_double("scale", 1.0 / 256.0);
    planner_options.proxy_seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
    planner_options.cache_capacity =
        static_cast<std::size_t>(cli.get_int("cache", 64));
    planner_options.threads =
        static_cast<unsigned>(cli.get_int("pool-threads", 0));
    planner_options.default_timeout_ms =
        static_cast<std::uint64_t>(cli.get_int("default-timeout-ms", 0));

    ServerOptions server_options;
    server_options.threads = static_cast<int>(cli.get_int("threads", 4));
    server_options.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue", 256));
    server_options.shed_when_full = cli.get_bool("shed", false);
    server_options.handshake_timeout_ms =
        static_cast<std::uint64_t>(cli.get_int("handshake-timeout-ms", 10'000));
    server_options.idle_timeout_ms =
        static_cast<std::uint64_t>(cli.get_int("idle-timeout-ms", 0));
    server_options.max_inflight_frames =
        static_cast<std::size_t>(cli.get_int("max-inflight", 0));

    const std::string wire = cli.get_string("wire", "auto");
    if (wire != "auto" && wire != "line") {
      std::cerr << "pglb_serve: --wire must be auto or line\n";
      return 2;
    }
    server_options.allow_wire_upgrade = wire == "auto";

    const bool dump_metrics = cli.get_bool("dump-metrics", false);
    const bool socket_mode = cli.has("listen");
    const int port = static_cast<int>(cli.get_int("listen", 0));
    const std::string port_file = cli.get_string("port-file", "");
    const std::string trace_out = cli.get_string("trace-out", "");
    const std::string snapshot_dir = cli.get_string("snapshot-dir", "");
    const std::uint64_t snapshot_interval_ms =
        static_cast<std::uint64_t>(cli.get_int("snapshot-interval-ms", 0));
    if (!trace_out.empty()) set_tracing_enabled(true);

    const auto unused = cli.unused_keys();
    if (!unused.empty()) {
      std::cerr << "pglb_serve: unknown flag --" << unused.front() << "\n";
      return 2;
    }

    ServiceMetrics metrics;
    Planner planner(planner_options, &metrics);
    // The server owns the delta planner, so it is constructed BEFORE the
    // warm-state restore — the restore repopulates its base registry too.
    // No request can arrive until serve_stream/serve_socket starts pumping,
    // so the restore still beats the first request.
    PlanServer server(planner, metrics, server_options);
    // Lazy warm-state restore: restored entries feed the same deterministic
    // arithmetic as fresh profiles, so plans after a restart are
    // byte-identical to the pre-restart replica's.
    restore_warm_state(planner, metrics, snapshot_dir, &server.delta_planner());

    if (socket_mode) {
#ifdef __unix__
      int status = 0;
      {
        PeriodicSnapshotter snapshotter(planner, metrics, snapshot_dir,
                                        snapshot_interval_ms,
                                        &server.delta_planner());
        status = serve_socket(server, port, port_file);
      }  // timer thread joined before the final (authoritative) save below
      if (status == 0) {
        save_warm_state(planner, metrics, snapshot_dir, &server.delta_planner());
      }
      // Graceful-shutdown path (satellite: drain, then flush the trace).
      if (!trace_out.empty()) {
        write_chrome_trace(trace_out);
        std::cerr << "pglb_serve: trace written to " << trace_out << "\n";
      }
      return status;
#else
      std::cerr << "pglb_serve: --listen is only available on POSIX builds\n";
      return 2;
#endif
    }

    {
      PeriodicSnapshotter snapshotter(planner, metrics, snapshot_dir,
                                      snapshot_interval_ms,
                                      &server.delta_planner());
      server.serve_stream(std::cin, std::cout);
      server.stop();  // drain before the final save sees the cache
    }
    save_warm_state(planner, metrics, snapshot_dir, &server.delta_planner());
    if (dump_metrics) {
      const ProfileCacheStats cache = planner.cache_stats();
      std::string extra = "\"cache\":{\"hits\":";
      append_json_number(extra, static_cast<double>(cache.hits));
      extra += ",\"misses\":";
      append_json_number(extra, static_cast<double>(cache.misses));
      extra += ",\"hit_rate\":";
      append_json_number(extra, cache.hit_rate());
      extra += "}";
      std::cerr << metrics.to_json(extra) << "\n";
    }
    if (!trace_out.empty()) {
      write_chrome_trace(trace_out);
      std::cerr << "pglb_serve: trace written to " << trace_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pglb_serve: " << e.what() << "\n";
    return 1;
  }
}
