#pragma once
// Closed-loop, cost-aware replica autoscaler (docs/AUTOSCALE.md).
//
// The control loop is deliberately split in two:
//  * decide() — pure state machine over FleetSample snapshots.  Time arrives
//    IN the sample (now_ms), never from a wall clock, so unit tests drive
//    hysteresis, cooldown, and bounds on a virtual clock with zero processes
//    (the same idiom as FleetOptions::clock_ms and BreakerOptions::clock_ms).
//  * the actuator — ReplicaFleet (fleet/replica_fleet.hpp), which samples
//    the fleet, calls decide(), and turns ScaleUp/Drain into spawn / rejoin
//    / SIGTERM-drain for both pglb_router and pglb_loadgen.  Rendezvous
//    hashing guarantees a drained replica's keys (and only its keys) re-home.
//
// Hysteresis: pressure (mean in-flight + shed queue depth per active replica)
// must exceed the scale-up threshold for `sustain_samples` consecutive
// samples before a ScaleUp is emitted, idle likewise for `idle_samples`
// before a Drain, and any action opens a cooldown window during which the
// loop holds.  Scale-ups pick the best machine under the configured cost
// policy (autoscale/policy.hpp) and report the live (cost, p99) Pareto
// frontier alongside the decision.

#include <cstdint>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "autoscale/policy.hpp"
#include "fleet/registry.hpp"
#include "obs/registry.hpp"

namespace pglb {

/// One backend as the sampler saw it.
struct BackendSample {
  std::string name;
  std::string spec_name;  ///< catalog machine this replica models ("" = base)
  BackendState state = BackendState::kUp;
  std::uint64_t inflight = 0;     ///< router attempts launched, unharvested
  std::uint64_t queue_depth = 0;  ///< depth from the last shed response
};

/// One control-loop observation.  now_ms is the loop's only notion of time.
struct FleetSample {
  std::uint64_t now_ms = 0;
  double p99_route_s = 0.0;  ///< router.route p99 from the obs registry
  std::vector<BackendSample> backends;
};

struct ScaleUp {
  MachineSpec spec;     ///< catalog machine to add
  double weight = 1.0;  ///< rendezvous weight (throughput relative to base)
};

struct DrainReplica {
  std::string backend;    ///< name of the replica to drain
  std::size_t index = 0;  ///< its position in the sample's backend list
};

struct Hold {
  std::string reason;  ///< "cooldown" | "pressure" | "idle-busy" | "steady" ...
};

using ScaleDecision = std::variant<Hold, ScaleUp, DrainReplica>;

struct AutoscalerOptions {
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  /// Mean (inflight + queue_depth) per active replica at or above which a
  /// sample counts as pressure.
  double pressure_threshold = 4.0;
  /// ... at or below which a sample counts as idle.
  double idle_threshold = 0.5;
  /// Consecutive pressure samples before a ScaleUp.
  std::uint32_t sustain_samples = 3;
  /// Consecutive idle samples before a Drain.
  std::uint32_t idle_samples = 5;
  /// Quiet window after any action, in sample-clock milliseconds.
  std::uint64_t cooldown_ms = 2'000;
  /// Catalog machine the floor replicas are assumed to be (weight baseline
  /// and capacity estimate for spec-less backends).
  std::string base_spec = "c4.2xlarge";
  PolicyOptions policy;
};

class Autoscaler {
 public:
  /// Counters/gauges land in `metrics` (may be null).
  explicit Autoscaler(AutoscalerOptions options, Registry* metrics = nullptr);

  /// One control-loop step.  Pure in the sample: same sequence of samples,
  /// same sequence of decisions.  Thread-safe (status_json may race it).
  ScaleDecision decide(const FleetSample& sample);

  /// One-line JSON status with deterministic key order, spliced into the
  /// router's metrics responses as the "autoscale" block:
  ///   {"policy":...,"replicas":N,"min":...,"max":...,
  ///    "pressure_streak":...,"idle_streak":...,"last_decision":...,
  ///    "scale_ups":...,"drains":...,"warming":{...},"pareto":{...}}
  std::string status_json() const;

  /// The actuator reports each peer-warming pass it ran after a scale-up or
  /// rejoin (docs/PERSIST.md): `keys_owned` keys rendezvous-ranked to the
  /// newcomer, `keys_warmed` of them prefetched ok.  Feeds the "warming"
  /// status block and the autoscale.keys_warmed counter.
  void record_warming(std::size_t keys_owned, std::size_t keys_warmed);

  const AutoscalerOptions& options() const noexcept { return options_; }

 private:
  void set_gauge(std::string_view name, double value);
  void count(std::string_view name);

  AutoscalerOptions options_;
  Registry* metrics_;

  mutable std::mutex mutex_;
  std::uint32_t pressure_streak_ = 0;
  std::uint32_t idle_streak_ = 0;
  std::uint64_t last_action_ms_ = 0;
  bool acted_ = false;  ///< last_action_ms_ is meaningful
  std::size_t replicas_ = 0;
  std::string last_decision_ = "none";
  std::uint64_t scale_ups_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t warm_passes_ = 0;
  std::uint64_t warm_keys_owned_ = 0;
  std::uint64_t warm_keys_warmed_ = 0;
  std::vector<ScaleCandidate> last_ranking_;
};

/// Build a FleetSample from the live registry + obs metrics: state, inflight
/// and queue depth per backend plus the route p99.  spec_name is left empty —
/// ReplicaFleet::sample(), which knows what it spawned, fills it in.
FleetSample sample_fleet(const FleetRegistry& fleet, const Registry& metrics);

}  // namespace pglb
