#include "fleet/replica_fleet.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "fleet/warming.hpp"
#include "util/portfile.hpp"

namespace pglb {

namespace {

constexpr std::uint64_t kReadyTimeoutMs = 30'000;

std::string slot_name(std::size_t slot) { return "b" + std::to_string(slot); }

/// One write per line: replicas share this stderr, and a line split across
/// writes can interleave with theirs where scripts grep for it.
void log_line(const std::string& text) { std::cerr << ("fleet: " + text + "\n"); }

/// Signal every pid, then reap every pid.
void reap(const std::vector<pid_t>& pids, int signal) {
  for (const pid_t pid : pids) ::kill(pid, signal);
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

}  // namespace

ReplicaFleet::ReplicaFleet(SpawnOptions spawn, RouterOptions router_options,
                           WireMode wire, std::uint16_t base_port,
                           Registry* metrics)
    : spawn_(std::move(spawn)),
      wire_(wire),
      base_port_(base_port),
      metrics_(metrics),
      port_dir_(make_port_dir()),
      router_(std::make_unique<Router>(std::move(router_options), metrics)) {}

ReplicaFleet::~ReplicaFleet() { teardown(SIGKILL); }

void ReplicaFleet::shutdown() { teardown(SIGTERM); }

void ReplicaFleet::teardown(int signal) {
  stop_autoscale();
  std::lock_guard<std::mutex> lock(mutex_);
  // Close every connection BEFORE reaping: a replica blocked in serve_stream
  // needs its peer to disconnect to reach its drain path.
  router_.reset();
  std::vector<pid_t> replicas;
  for (Slot& slot : slots_) {
    slot.backend.reset();
    if (slot.pid > 0) replicas.push_back(std::exchange(slot.pid, -1));
  }
  reap(replicas, signal);
  // Helpers (the chaos proxy) go last: the replicas' drain traffic may flow
  // through them, and they publish into the port dir removed below.
  reap(std::exchange(helpers_, {}), signal);
  std::error_code ignored;
  std::filesystem::remove_all(port_dir_, ignored);
}

std::string ReplicaFleet::port_file(std::size_t slot) const {
  return port_dir_ + "/" + slot_name(slot) + ".port";
}

pid_t ReplicaFleet::fork_replica(std::size_t slot, bool line_json) const {
  const std::string tag = slot_name(slot);
  // Fixed ports publish too: the file appears once the replica listens.
  std::remove(port_file(slot).c_str());  // a respawned slot must not read stale
  std::vector<std::string> args = {
      spawn_.serve_path,
      "--listen=" + std::to_string(base_port_ == 0 ? 0 : base_port_ + slot),
      "--threads=" + std::to_string(spawn_.threads),
      "--scale=" + std::to_string(spawn_.scale),
      "--queue=" + std::to_string(spawn_.queue)};
  if (spawn_.shed) args.emplace_back("--shed");
  if (line_json) args.emplace_back("--wire=line");
  args.emplace_back("--port-file=" + port_file(slot));
  if (!spawn_.snapshot_dir.empty()) {
    // Per-replica snapshot home: two replicas must never clobber one
    // warm.snap, and a respawned tag must find its predecessor's file.
    const std::string snapshot_dir = spawn_.snapshot_dir + "/" + tag;
    std::filesystem::create_directories(snapshot_dir);
    args.emplace_back("--snapshot-dir=" + snapshot_dir);
    if (spawn_.snapshot_interval_ms > 0) {
      args.emplace_back("--snapshot-interval-ms=" +
                        std::to_string(spawn_.snapshot_interval_ms));
    }
  }
  // argv is built before the fork: the child of a threaded parent may only
  // exec.
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("execv");
    _exit(127);
  }
  return pid;
}

std::vector<std::uint16_t> ReplicaFleet::spawn_replicas(std::size_t count,
                                                        std::size_t line_replicas) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Boot in parallel: fork every replica, then wait for all of them.
  for (std::size_t k = 0; k < count; ++k) {
    slots_.push_back({fork_replica(k, k < line_replicas), "", nullptr});
  }
  std::vector<std::uint16_t> ports;
  for (std::size_t k = 0; k < count; ++k) {
    ports.push_back(wait_port_file(port_file(k), kReadyTimeoutMs));
  }
  return ports;
}

void ReplicaFleet::connect(const std::vector<std::uint16_t>& ports,
                           const std::vector<double>& weights) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!slots_.empty() && slots_.size() != ports.size()) {
    throw std::invalid_argument("connect needs one port per spawned replica");
  }
  slots_.resize(ports.size());
  for (std::size_t k = 0; k < ports.size(); ++k) {
    slots_[k].backend =
        std::make_shared<TcpBackend>(slot_name(k), ports[k], "127.0.0.1", wire_);
    router_->add_backend(slots_[k].backend, weights.empty() ? 1.0 : weights.at(k));
  }
  router_->start();
}

void ReplicaFleet::adopt(pid_t pid) {
  std::lock_guard<std::mutex> lock(mutex_);
  helpers_.push_back(pid);
}

std::size_t ReplicaFleet::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

pid_t ReplicaFleet::pid(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.at(slot).pid;
}

void ReplicaFleet::stop_replica(std::size_t slot, int signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  stop_locked(slot, signal);
}

void ReplicaFleet::stop_locked(std::size_t slot, int signal) {
  // pid -1 must never reach kill(): it would signal every process we may.
  if (slots_.at(slot).pid > 0) reap({std::exchange(slots_[slot].pid, -1)}, signal);
}

void ReplicaFleet::restart_replica(std::size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  restart_locked(slot);
}

std::uint16_t ReplicaFleet::restart_locked(std::size_t slot) {
  stop_locked(slot, SIGTERM);
  slots_[slot].pid = fork_replica(slot);
  const std::uint16_t port = wait_port_file(port_file(slot), kReadyTimeoutMs);
  // The respawn may land on a fresh ephemeral port: re-point the slot's
  // backend (same name, same rendezvous keys).  The port file proves the
  // replica listens, so clear the backoff its predecessor's failures accrued
  // instead of leaving the slot down until the prober's window expires.
  slots_[slot].backend->set_port(port);
  router_->fleet().record_success(slot);
  return port;
}

FleetSample ReplicaFleet::sample() const {
  FleetSample sample = sample_fleet(router_->fleet(), *metrics_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < sample.backends.size() && k < slots_.size(); ++k) {
    sample.backends[k].spec_name = slots_[k].spec;
  }
  return sample;
}

void ReplicaFleet::apply(const ScaleDecision& decision) {
  if (const auto* drain = std::get_if<DrainReplica>(&decision)) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drain->index < slots_.size() && slots_[drain->index].pid > 0) {
      router_->fleet().set_draining(drain->index, true);
      stop_locked(drain->index, SIGTERM);
      log_line("autoscale: drained " + drain->backend);
    }
    return;
  }
  const auto* up = std::get_if<ScaleUp>(&decision);
  if (up == nullptr) return;
  std::size_t slot = 0;
  try {
    std::lock_guard<std::mutex> lock(mutex_);
    // Prefer rejoining a drained slot (same weight and spec; its keys
    // rendezvous straight back) over renting a new one.
    while (slot < slots_.size() &&
           !(slots_[slot].pid < 0 &&
             router_->fleet().status(slot).state == BackendState::kDraining)) {
      ++slot;
    }
    std::string what = "(rejoin)";
    std::uint16_t port = 0;
    if (slot < slots_.size()) {
      port = restart_locked(slot);
      router_->fleet().set_draining(slot, false);
    } else {
      what = "(" + up->spec.name + ")";
      const pid_t pid = fork_replica(slot);
      try {
        port = wait_port_file(port_file(slot), kReadyTimeoutMs);
      } catch (...) {
        reap({pid}, SIGKILL);
        throw;
      }
      slots_.push_back({pid, up->spec.name,
                        std::make_shared<TcpBackend>(slot_name(slot), port,
                                                     "127.0.0.1", wire_)});
      router_->add_backend(slots_[slot].backend, up->weight);
    }
    log_line("autoscale: scale-up " + slot_name(slot) + " " + what +
             " on port " + std::to_string(port));
  } catch (const std::exception& e) {
    log_line(std::string("autoscale: scale-up failed: ") + e.what());
    return;
  }
  if (warm_limit_ > 0) {
    // Off the lock: warming waits on peers and the newcomer for seconds.
    WarmingOptions options;
    options.per_backend_limit = warm_limit_;
    options.max_prefetch = warm_limit_;
    const WarmReport warm = warm_replica(router_->fleet(), slot, options, metrics_);
    autoscaler_->record_warming(warm.keys_owned, warm.keys_warmed);
    log_line("warming: " + slot_name(slot) + " owned " +
             std::to_string(warm.keys_owned) + "/" + std::to_string(warm.keys_seen) +
             " key(s), warmed " + std::to_string(warm.keys_warmed));
  }
}

void ReplicaFleet::start_autoscale(AutoscalerOptions options,
                                   std::uint64_t interval_ms,
                                   std::size_t warm_limit) {
  options.min_replicas = size();
  autoscaler_ = std::make_unique<Autoscaler>(std::move(options), metrics_);
  warm_limit_ = warm_limit;
  autoscale_thread_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(autoscale_mutex_);
    while (!autoscale_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                                   [this] { return autoscale_stop_; })) {
      lock.unlock();
      try {
        apply(autoscaler_->decide(sample()));
      } catch (const std::exception& e) {  // e.g. an unknown --base-spec
        log_line(std::string("autoscale: ") + e.what());
      }
      lock.lock();
    }
  });
}

void ReplicaFleet::stop_autoscale() {
  {
    std::lock_guard<std::mutex> lock(autoscale_mutex_);
    autoscale_stop_ = true;
  }
  autoscale_cv_.notify_all();
  if (autoscale_thread_.joinable()) autoscale_thread_.join();
}

}  // namespace pglb
