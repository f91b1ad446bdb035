#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {
/// Per-machine accounting shards only on clusters big enough to repay the
/// fan-out; the common test clusters (a handful of machines) stay inline.
constexpr std::size_t kMachineGrain = 64;
}  // namespace

VirtualClusterExecutor::VirtualClusterExecutor(const Cluster& cluster, const AppProfile& app,
                                               const WorkloadTraits& traits)
    : cluster_(&cluster),
      app_(&app),
      work_scale_(traits.work_scale),
      energy_(std::vector<MachineSpec>(cluster.machines().begin(), cluster.machines().end())),
      activity_(cluster.size()) {
  work_.machines = cluster.size();
  if (!(work_scale_ >= 1.0)) {
    throw std::invalid_argument("VirtualClusterExecutor: work_scale must be >= 1");
  }
  throughputs_.reserve(cluster.size());
  for (MachineId m = 0; m < cluster.size(); ++m) {
    throughputs_.push_back(throughput_ops(cluster.machine(m), app, traits));
  }
}

void VirtualClusterExecutor::set_interference(InterferenceSchedule schedule) {
  if (supersteps_ > 0 || finished_) {
    throw std::logic_error("set_interference: must be called before execution starts");
  }
  interference_ = std::move(schedule);
}

void VirtualClusterExecutor::record_superstep(std::span<const double> ops,
                                              std::span<const double> comm_bytes) {
  // Host time of the accounting pass, arg = superstep index.  The virtual
  // BSP schedule itself is bridged separately (append_trace_spans).
  PGLB_TRACE_SPAN_ARG("engine.superstep", "engine",
                      static_cast<std::uint64_t>(supersteps_));
  if (finished_) throw std::logic_error("record_superstep after finish()");
  if (ops.size() != cluster_->size() || comm_bytes.size() != cluster_->size()) {
    throw std::invalid_argument("record_superstep: per-machine vector size mismatch");
  }

  // Shared mirror-exchange phase: a collective over the total traffic of the
  // superstep.  Every machine is engaged for its full duration.
  double total_bytes = 0.0;
  for (const double b : comm_bytes) total_bytes += b;
  const double exchange = cluster_->network().exchange_seconds(work_scale_ * total_bytes);

  // Per-machine accounting: every machine owns its busy[m]/activity_[m]
  // slots, so the loop shards freely.  Only total_ops_ is a cross-machine
  // float reduction; it is summed afterwards in machine order, keeping the
  // report bit-identical at any thread count.
  std::vector<double> busy(cluster_->size());
  parallel_for(pool_or_global(pool_), cluster_->size(), kMachineGrain,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t m = begin; m < end; ++m) {
                   // work_scale re-inflates counts measured on a scaled-down
                   // graph to paper scale, keeping the compute/exchange
                   // proportions scale-invariant.  Interference derates this
                   // machine's throughput for this superstep.
                   const double effective =
                       throughputs_[m] * interference_.factor(static_cast<MachineId>(m),
                                                              supersteps_);
                   const double compute = work_scale_ * ops[m] / effective;
                   busy[m] = compute + exchange;
                   activity_[m].compute_seconds += compute;
                   activity_[m].comm_seconds += exchange;
                   activity_[m].ops += ops[m];
                 }
               });
  for (const double o : ops) total_ops_ += o;
  ++supersteps_;
  work_.ops.insert(work_.ops.end(), ops.begin(), ops.end());
  work_.comm_bytes.insert(work_.comm_bytes.end(), comm_bytes.begin(), comm_bytes.end());

  if (app_->synchronous) {
    // BSP barrier at the end of compute, then the collective exchange: the
    // superstep lasts straggler-compute + exchange.
    const auto straggler = static_cast<MachineId>(
        std::max_element(busy.begin(), busy.end()) - busy.begin());
    const double window = busy[straggler];
    energy_.record_interval(busy, window);
    for (MachineId m = 0; m < cluster_->size(); ++m) {
      activity_[m].idle_seconds += window - busy[m];
    }
    makespan_ += window;

    SuperstepTrace step;
    step.window_seconds = window;
    step.exchange_seconds = exchange;
    step.straggler = straggler;
    for (const double o : ops) step.total_ops += o;
    trace_.push_back(step);
  }
  // Asynchronous apps take no per-superstep barrier: busy time accumulated in
  // activity_ settles into makespan/energy at finish().
}

ExecReport VirtualClusterExecutor::finish(std::string app_name, bool converged) {
  if (finished_) throw std::logic_error("finish() called twice");
  finished_ = true;
  global_registry().count("engine.runs");
  if (!replay_) global_registry().count("engine.app_runs");
  global_registry().count("engine.supersteps", static_cast<std::uint64_t>(supersteps_));

  if (!app_->synchronous) {
    // Async: the run ends when the busiest machine drains its work.
    std::vector<double> busy(cluster_->size());
    double window = 0.0;
    for (MachineId m = 0; m < cluster_->size(); ++m) {
      busy[m] = activity_[m].compute_seconds + activity_[m].comm_seconds;
      window = std::max(window, busy[m]);
    }
    energy_.record_interval(busy, window);
    for (MachineId m = 0; m < cluster_->size(); ++m) {
      activity_[m].idle_seconds = window - busy[m];
    }
    makespan_ = window;
  }

  ExecReport report;
  report.app_name = std::move(app_name);
  report.makespan_seconds = makespan_;
  report.supersteps = supersteps_;
  report.converged = converged;
  report.total_ops = total_ops_;
  report.per_machine = activity_;
  report.trace = std::move(trace_);
  report.work = std::move(work_);
  for (MachineId m = 0; m < cluster_->size(); ++m) {
    report.per_machine[m].joules = energy_.per_machine()[m].joules;
  }
  report.total_joules = energy_.total_joules();
  return report;
}

ExecReport price(const ExecReport& run, const Cluster& cluster, const AppProfile& app,
                 const WorkloadTraits& traits) {
  const WorkTrace& work = run.work;
  if (work.machines != cluster.size()) {
    throw std::invalid_argument("price: the run recorded " + std::to_string(work.machines) +
                                " machine(s), the cluster has " +
                                std::to_string(cluster.size()));
  }
  VirtualClusterExecutor exec(cluster, app, traits);
  exec.replay_ = true;
  const std::size_t width = work.machines;
  for (std::size_t at = 0; width > 0 && at < work.ops.size(); at += width) {
    exec.record_superstep(std::span<const double>(work.ops).subspan(at, width),
                          std::span<const double>(work.comm_bytes).subspan(at, width));
  }
  return exec.finish(run.app_name, run.converged);
}

std::vector<double> mirror_sync_bytes(const DistributedGraph& dg, const AppProfile& app) {
  std::vector<double> bytes(dg.num_machines());
  for (MachineId m = 0; m < dg.num_machines(); ++m) {
    bytes[m] = 2.0 * app.bytes_per_mirror * static_cast<double>(dg.mirrors_on(m));
  }
  return bytes;
}

}  // namespace pglb
