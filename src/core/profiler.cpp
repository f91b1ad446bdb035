#include "core/profiler.hpp"

#include <stdexcept>

#include "apps/registry.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/random_hash.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

double profile_single_machine(const MachineSpec& spec, AppKind app,
                              const EdgeList& graph, double scale,
                              const CancelToken* cancel) {
  // One profiling cell = one single-machine virtual execution; the span and
  // counter cover every caller (suite profiling, oracle estimation, the
  // planning service's per-class fan-out).  Cancellation is checked at cell
  // granularity: a cell that has started always completes (its output is
  // bit-identical to an undeadlined run), and a stuck cell is simulated by
  // the "profiler.cell" fault site rather than interrupted for real.
  check_cancel(cancel, "profiler.cell");
  fault_point("profiler.cell");
  check_cancel(cancel, "profiler.cell");  // a stall may have eaten the budget
  PGLB_TRACE_SPAN("profile.cell", "profiler");
  global_registry().count("profiler.cells");
  const Cluster solo{std::vector<MachineSpec>{spec}};
  const EdgeList prepared = prepare_graph_for(app, graph);
  const GraphStats stats = compute_stats(prepared);
  const WorkloadTraits traits = traits_from_stats(stats, scale);

  const RandomHashPartitioner partitioner;
  const std::vector<double> weights{1.0};
  const auto assignment =
      partitioner.partition(prepared, weights, kProfilingPartitionSeed);
  const auto dg = build_distributed(prepared, assignment);
  const auto result = run_app(app, prepared, dg, solo, traits);
  return result.report.makespan_seconds;
}

std::size_t profile_cluster(TimeDatabase& pool, const Cluster& cluster,
                            const ProxySuite& suite, std::span<const AppKind> apps,
                            ThreadPool* thread_pool, const CancelToken* cancel) {
  PGLB_TRACE_SPAN("profile.cluster", "profiler");
  const auto groups = group_machines(cluster);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t h = 0; h < g; ++h) {
      if (groups[h].representative.name == groups[g].representative.name) {
        throw std::invalid_argument("profile_cluster: two different machine specs share "
                                    "the name '" + groups[g].representative.name + "'");
      }
    }
  }

  // Collect the cells the pool lacks.  Every cell is an independent
  // single-machine virtual execution writing its own slot; a CancelledError
  // (or injected fault) from any cell is rethrown by the fan-out before
  // anything is recorded.
  struct Cell {
    TimeDatabase::Key key;
    const MachineSpec* machine;
    const EdgeList* graph;
  };
  std::vector<Cell> cells;
  for (const AppKind app : apps) {
    for (const ProxySuite::Proxy& proxy : suite.proxies()) {
      for (const MachineGroup& group : groups) {
        TimeDatabase::Key key{app, proxy.alpha, group.representative.name};
        if (!pool.lookup(key)) {
          cells.push_back({std::move(key), &group.representative, &proxy.graph});
        }
      }
    }
  }
  std::vector<double> times(cells.size(), 0.0);
  parallel_for(pool_or_global(thread_pool), cells.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   times[i] = profile_single_machine(*cells[i].machine, cells[i].key.app,
                                                     *cells[i].graph, suite.scale(), cancel);
                 }
               });
  for (std::size_t i = 0; i < cells.size(); ++i) pool.record(cells[i].key, times[i]);
  return cells.size();
}

std::vector<double> profile_groups_on_graph(const Cluster& cluster, AppKind app,
                                            const EdgeList& graph, double scale,
                                            ThreadPool* thread_pool,
                                            const CancelToken* cancel) {
  PGLB_TRACE_SPAN("profile.groups", "profiler");
  const auto groups = group_machines(cluster);
  std::vector<double> times(groups.size(), 0.0);
  parallel_for(pool_or_global(thread_pool), groups.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t g = begin; g < end; ++g) {
                   times[g] = profile_single_machine(groups[g].representative, app, graph,
                                                     scale, cancel);
                 }
               });
  return times;
}

}  // namespace pglb
