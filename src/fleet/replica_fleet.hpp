#pragma once
// One fleet of `pglb_serve --listen` replicas behind a Router (docs/FLEET.md):
// the single owner of the replica process lifecycle that pglb_router and
// pglb_loadgen share.
//
// A ReplicaFleet owns a private port directory, the pglb_serve children it
// forks, one TcpBackend per slot, and the Router over them.  Replicas bind
// EPHEMERAL ports by default: each child binds port 0 and publishes the
// kernel's choice as <port_dir>/<tag>.port (util/portfile.hpp), so parallel
// runs never collide; a nonzero base port restores fixed ports base+slot.
//
// Lifecycle:
//   ReplicaFleet fleet(spawn, router_options, wire, base_port, &metrics);
//   ports = fleet.spawn_replicas(k);   // fork all k, then wait for all k
//   fleet.connect(ports);              // (or a proxy's ports, or attach)
//   ... fleet.router().route(line) ...
//   fleet.shutdown();                  // graceful: SIGTERM + reap, rm port dir
// The destructor is the error path: it SIGKILLs and reaps whatever still
// runs and removes the port dir.
//
// Slots are append-only (FleetRegistry indices stay valid): a stopped or
// drained slot keeps its name and rendezvous keys, and a restart re-points
// its TcpBackend at the new replica's port.  Every stderr line the fleet
// writes is one write(), so it cannot interleave with a replica's output.

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autoscale/autoscaler.hpp"
#include "fleet/router.hpp"
#include "fleet/tcp_backend.hpp"

namespace pglb {

/// How every replica of a fleet is started.
struct SpawnOptions {
  std::string serve_path = "./pglb_serve";
  int threads = 4;
  double scale = 1.0 / 256.0;
  std::size_t queue = 256;
  bool shed = false;
  /// Durable warm state (docs/PERSIST.md): when non-empty, each child gets
  /// `--snapshot-dir=<snapshot_dir>/<tag>` (created on demand), so a
  /// respawned slot restores the snapshot its predecessor left behind.
  std::string snapshot_dir;
  /// Child's --snapshot-interval-ms (0 = save only on the SIGTERM drain).
  std::uint64_t snapshot_interval_ms = 0;
};

class ReplicaFleet {
 public:
  /// Creates the private port dir.  `metrics` (required) receives the
  /// router's and the autoscaler's counters and must outlive the fleet.
  ReplicaFleet(SpawnOptions spawn, RouterOptions router_options, WireMode wire,
               std::uint16_t base_port, Registry* metrics);
  ~ReplicaFleet();

  ReplicaFleet(const ReplicaFleet&) = delete;
  ReplicaFleet& operator=(const ReplicaFleet&) = delete;

  const std::string& port_dir() const noexcept { return port_dir_; }

  /// Fork `count` replicas, then wait until every one listens.  The first
  /// `line_replicas` run `--wire=line`: line-JSON-only replicas that decline
  /// the binary upgrade (docs/WIRE.md).  Returns the ports in slot order.
  std::vector<std::uint16_t> spawn_replicas(std::size_t count,
                                            std::size_t line_replicas = 0);

  /// One TcpBackend per port — the spawned replicas' own ports, a proxy's
  /// ports in front of them, or an already-running fleet to attach to — and
  /// start the router.  `weights` is empty (all 1.0) or one per port.
  void connect(const std::vector<std::uint16_t>& ports,
               const std::vector<double>& weights = {});

  /// Hand over a helper process that publishes into port_dir() (the chaos
  /// proxy): it is signalled and reaped after the replicas, before the port
  /// dir goes.
  void adopt(pid_t pid);

  Router& router() { return *router_; }
  const Autoscaler* autoscaler() const { return autoscaler_.get(); }

  std::size_t size() const;
  /// The slot's replica process; -1 when none runs (attached, stopped, or
  /// drained).
  pid_t pid(std::size_t slot) const;

  /// Send `signal` to the slot's replica and reap it (no-op if none runs).
  /// The router learns of the loss from its own traffic and probes.
  void stop_replica(std::size_t slot, int signal);

  /// Stop whatever runs in the slot, spawn a fresh replica, wait until it
  /// listens, re-point the slot's backend at it, and mark it up at once
  /// (no probe backoff to wait out).
  void restart_replica(std::size_t slot);

  /// Fleet health + route p99 for Autoscaler::decide, with each slot's
  /// catalog spec filled in ("" = base spec).
  FleetSample sample() const;

  /// Act on one decision.  ScaleUp rejoins the first drained slot, else
  /// spawns a new slot with the decision's spec and weight; either way the
  /// newcomer is then peer-warmed (when autoscaling with a warm limit).
  /// DrainReplica marks the slot draining and SIGTERMs + reaps its replica.
  /// Failures are logged, never thrown.
  void apply(const ScaleDecision& decision);

  /// Run sample -> decide -> apply every `interval_ms` on a background
  /// thread.  The replica floor is the fleet's current size; `warm_limit`
  /// bounds each peer-warming pass (0 = off).
  void start_autoscale(AutoscalerOptions options, std::uint64_t interval_ms,
                       std::size_t warm_limit);
  /// Join the autoscale thread (idempotent).
  void stop_autoscale();

  /// Graceful teardown: stop autoscaling and the router, close every
  /// connection, SIGTERM and reap the replicas and helpers, remove the port
  /// dir.  router() is unusable afterwards.
  void shutdown();

 private:
  struct Slot {
    pid_t pid = -1;
    std::string spec;  ///< catalog machine it models ("" = base)
    std::shared_ptr<TcpBackend> backend;
  };

  /// Where the slot's replica publishes its port once it listens.
  std::string port_file(std::size_t slot) const;
  pid_t fork_replica(std::size_t slot, bool line_json = false) const;
  std::uint16_t restart_locked(std::size_t slot);  ///< returns the new port
  void stop_locked(std::size_t slot, int signal);
  void teardown(int signal);

  SpawnOptions spawn_;
  WireMode wire_;
  std::uint16_t base_port_;
  Registry* metrics_;
  std::string port_dir_;
  std::unique_ptr<Router> router_;

  mutable std::mutex mutex_;  // guards slots_ and helpers_
  std::vector<Slot> slots_;
  std::vector<pid_t> helpers_;

  std::unique_ptr<Autoscaler> autoscaler_;
  std::size_t warm_limit_ = 0;
  std::mutex autoscale_mutex_;
  std::condition_variable autoscale_cv_;
  bool autoscale_stop_ = false;
  std::thread autoscale_thread_;
};

}  // namespace pglb
