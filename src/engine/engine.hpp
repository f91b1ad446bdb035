#pragma once
// Virtual-time BSP executor: the scheduling/energy core of the simulated
// PowerGraph substrate.
//
// Applications (src/apps/) do the *real* computation machine-by-machine over
// their local edge partitions, and report per-machine work (operation counts)
// and mirror-synchronisation bytes for each superstep.  The executor converts
// work to virtual seconds through the machine performance model, applies the
// BSP barrier (synchronous apps) or end-only barrier (asynchronous apps, i.e.
// Coloring), and integrates energy over the busy/idle schedule.

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/interference.hpp"
#include "engine/distributed_graph.hpp"
#include "engine/exec_report.hpp"
#include "machine/app_profile.hpp"
#include "machine/perf_model.hpp"

namespace pglb {

class ThreadPool;

class VirtualClusterExecutor {
 public:
  /// Keeps pointers to `cluster` and `app`: both must outlive the executor,
  /// so temporaries are rejected at compile time.
  VirtualClusterExecutor(const Cluster& cluster, const AppProfile& app,
                         const WorkloadTraits& traits);
  VirtualClusterExecutor(Cluster&&, const AppProfile&, const WorkloadTraits&) = delete;
  VirtualClusterExecutor(const Cluster&, AppProfile&&, const WorkloadTraits&) = delete;

  /// Sustained work-units/second of machine m for this app/workload
  /// (nominal, without interference).
  double throughput(MachineId m) const { return throughputs_.at(m); }

  /// Inject a transient-slowdown schedule (multi-tenant interference).  Must
  /// be called before the first superstep.
  void set_interference(InterferenceSchedule schedule);

  /// Shard per-machine superstep accounting over `pool` (nullptr = the global
  /// pool).  Reports are bit-identical at any thread count: machines own
  /// their activity slots and cross-machine float sums stay in machine order.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// Record one superstep: ops[m] work-units computed and comm_bytes[m]
  /// mirror traffic moved by machine m.
  void record_superstep(std::span<const double> ops, std::span<const double> comm_bytes);

  /// Seal the run and produce the report.
  ExecReport finish(std::string app_name, bool converged);

  MachineId num_machines() const noexcept { return cluster_->size(); }
  bool synchronous() const noexcept { return app_->synchronous; }

 private:
  friend ExecReport price(const ExecReport& run, const Cluster& cluster,
                          const AppProfile& app, const WorkloadTraits& traits);

  const Cluster* cluster_;
  const AppProfile* app_;
  ThreadPool* pool_ = nullptr;
  double work_scale_ = 1.0;
  std::vector<double> throughputs_;
  InterferenceSchedule interference_;
  EnergyAccumulator energy_;
  std::vector<MachineActivity> activity_;
  std::vector<SuperstepTrace> trace_;
  double makespan_ = 0.0;
  int supersteps_ = 0;
  double total_ops_ = 0.0;
  WorkTrace work_;
  bool replay_ = false;  ///< set by price(): not counted as an app run
  bool finished_ = false;
};

/// Price a recorded run on `cluster`: replay `run.work` through a fresh
/// executor (no interference) and seal it with `run`'s name and convergence.
/// Apps only record work and never read virtual time back, so the report is
/// bit-identical to running the app on `cluster`: profiling runs each kernel
/// once and prices it per machine type.  Throws std::invalid_argument when
/// `cluster` has a different machine count than the run.
ExecReport price(const ExecReport& run, const Cluster& cluster, const AppProfile& app,
                 const WorkloadTraits& traits);

/// Mirror-synchronisation bytes each machine moves in one value-exchange
/// round: every mirror uploads its gather partial and downloads the applied
/// value (2 messages of app.bytes_per_mirror).
std::vector<double> mirror_sync_bytes(const DistributedGraph& dg, const AppProfile& app);

}  // namespace pglb
