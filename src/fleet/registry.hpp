#pragma once
// Backend bookkeeping of the fleet router (docs/FLEET.md): which replicas
// exist, their rendezvous weights, and their health.
//
// Health model: a backend is up, down, or draining.
//  - up:       eligible for routing.
//  - down:     a transport failure (or failed probe) was observed; ineligible
//              until its backoff window passes, at which point ONE caller may
//              probe through (exponential backoff on consecutive failures, so
//              a dead replica costs O(log) reconnect attempts, not one per
//              request).
//  - draining: administratively excluded from NEW requests (planned restart,
//              scale-in) while in-flight work finishes.  Health probes keep
//              running so an operator can see it is still alive.
//
// Typed backpressure integrates here too: when a backend answers
// "overloaded" with retry_after_ms, defer() parks it (still up, but
// ineligible) until that horizon passes — the router retries elsewhere
// immediately and honours the backend's own hint instead of hammering it.
//
// Membership is dynamic: the autoscaler (docs/AUTOSCALE.md) adds replicas
// while requests are routing, so every read that spans the backend list goes
// through a snapshot (membership()) or a locked accessor — indices are
// stable (slots are only appended, never removed; scale-in drains a slot and
// leaves it for a later rejoin).
//
// Time is injectable (options.clock_ms) so tests drive backoff and
// retry-after windows on a virtual clock, the same idiom as
// BreakerOptions::clock_ms (docs/ROBUSTNESS.md).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/backend.hpp"

namespace pglb {

enum class BackendState { kUp, kDown, kDraining };

std::string_view to_string(BackendState state) noexcept;

struct FleetOptions {
  /// First backoff window after a failure; doubles per consecutive failure.
  std::uint64_t base_backoff_ms = 100;
  /// Backoff ceiling.
  std::uint64_t max_backoff_ms = 5'000;
  /// Injectable monotonic clock (milliseconds).  Defaults to steady_clock.
  std::function<std::uint64_t()> clock_ms;

  // --- straggler detection (docs/CHAOS.md) ---------------------------------
  // A chronically slow backend on a degraded link answers every request and
  // so never goes down — but routing to it at full weight drags tail latency.
  // record_latency() keeps a per-backend latency floor: the fastest of its
  // last straggler_min_samples latencies.  A slow link raises every sample
  // and so the floor; a cache-miss plan or a scheduling hiccup raises one
  // sample and leaves it alone.  A backend whose floor exceeds
  // straggler_factor × the median of its peers' floors is marked *degraded*:
  // still up, still probed, but its rendezvous weight is multiplied by
  // straggler_weight_factor so it wins proportionally fewer keys.  Recovery
  // (floor back under straggler_recovery_factor × median) restores the weight
  // — the gap between the two factors is the hysteresis that stops flapping.

  /// Degrade threshold: floor > factor × peer median.
  double straggler_factor = 4.0;
  /// Recover threshold: floor < factor × peer median.  Must be < straggler_factor.
  double straggler_recovery_factor = 2.0;
  /// Samples a backend (and each peer consulted) needs before judgments;
  /// also the window the latency floor is taken over.
  std::uint64_t straggler_min_samples = 8;
  /// Rendezvous weight multiplier while degraded.
  double straggler_weight_factor = 0.25;
};

/// Point-in-time health of one backend, as reported by status_json().
struct BackendStatus {
  std::string name;
  double weight = 1.0;
  BackendState state = BackendState::kUp;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t not_before_ms = 0;  ///< next eligible attempt (0 = now)
  std::uint64_t successes = 0;      ///< requests + probes answered
  std::uint64_t failures = 0;       ///< transport failures observed
  std::uint64_t inflight = 0;       ///< router attempts launched, not harvested
  std::uint64_t queue_depth = 0;    ///< last depth a shed response reported
  bool degraded = false;            ///< straggler: weight-decayed, still up
  double floor_ms = 0.0;            ///< fastest recent end-to-end latency
  std::uint64_t latency_samples = 0;
};

/// Point-in-time copy of the backend list for one routing decision — ranking
/// must see one consistent (names, weights) pair even while the autoscaler
/// appends replicas concurrently.
struct FleetMembership {
  std::vector<std::string> names;
  std::vector<double> weights;
};

class FleetRegistry {
 public:
  explicit FleetRegistry(FleetOptions options = {});

  /// Register a backend with a rendezvous weight.  Returns its index.
  /// Thread-safe: the autoscaler adds replicas while requests route; indices
  /// already handed out stay valid (append-only).
  std::size_t add(std::shared_ptr<Backend> backend, double weight = 1.0);

  std::size_t size() const;
  std::shared_ptr<Backend> backend(std::size_t index) const;
  FleetMembership membership() const;
  std::string name(std::size_t index) const;

  /// True when `index` may receive a NEW request now: up (or down with its
  /// backoff window expired — the probe-through path) and not draining and
  /// not parked by a retry-after hint.
  bool eligible(std::size_t index) const;

  /// True when `index` should be health-probed now: anything not up whose
  /// window expired, plus every up backend (liveness confirmation).
  bool probe_due(std::size_t index) const;

  /// A request or probe succeeded: transition to up, reset failure count.
  /// Draining is sticky — success keeps a draining backend draining.
  void record_success(std::size_t index);

  /// A transport failure: transition to down and push not_before out by the
  /// exponential backoff for the (incremented) consecutive-failure count.
  void record_failure(std::size_t index);

  /// One observed end-to-end latency for a harvested response from `index`.
  /// Feeds the straggler floor (see FleetOptions); returns true exactly when
  /// this sample flipped the backend to degraded (the router counts those).
  bool record_latency(std::size_t index, double elapsed_ms);

  /// The backend shed with "overloaded": park it (no state change) until
  /// now + retry_after_ms, and remember the queue depth it reported (the
  /// autoscaler's shed-pressure signal; cleared by the next success).
  void defer(std::size_t index, std::uint64_t retry_after_ms,
             std::uint64_t queue_depth = 0);

  void set_draining(std::size_t index, bool draining);

  /// Router attempt accounting: one launched (+1) / harvested or abandoned
  /// (-1) attempt on `index`.  Returns the new in-flight count — the
  /// queue-depth proxy the autoscaler samples and the router mirrors into
  /// the obs registry as the fleet.<name>.inflight gauge.
  std::uint64_t begin_attempt(std::size_t index);
  std::uint64_t end_attempt(std::size_t index);

  BackendStatus status(std::size_t index) const;

  /// One-line JSON array of per-backend status, deterministic key order:
  ///   [{"name":...,"state":...,"weight":...,"failures":...,...},...]
  std::string status_json() const;

  std::uint64_t now_ms() const { return options_.clock_ms(); }

 private:
  struct Health {
    BackendState state = BackendState::kUp;
    bool draining = false;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t not_before_ms = 0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::uint64_t inflight = 0;
    std::uint64_t queue_depth = 0;
    bool degraded = false;
    std::vector<double> recent;  ///< ring of the last straggler_min_samples
    double floor_ms = 0.0;       ///< min of `recent`
    std::uint64_t latency_samples = 0;
  };

  std::uint64_t backoff_ms(std::uint64_t consecutive_failures) const;

  FleetOptions options_;
  std::vector<std::shared_ptr<Backend>> backends_;
  std::vector<std::string> names_;
  std::vector<double> weights_;
  mutable std::mutex mutex_;
  std::vector<Health> health_;
};

}  // namespace pglb
