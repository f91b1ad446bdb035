#include "core/profiler.hpp"

#include <stdexcept>

#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/random_hash.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {

Cluster solo(const MachineSpec& spec) { return Cluster{std::vector<MachineSpec>{spec}}; }

/// One profiling pass of `app` over `graph`: prepare, partition and run the
/// kernel once, on a one-machine cluster of specs[0], then price that work on
/// one machine of each spec (a priced cell).  Returns per-spec virtual
/// seconds.  Cancellation and the "profiler.cell" fault site guard the kernel
/// run: a run that has started always completes (its output is bit-identical
/// to an undeadlined run), and a stuck run is simulated by the fault site
/// rather than interrupted for real.  Pricing is cheap, but a fired token
/// still stops it before the next cell.
std::vector<double> profile_on_graph(std::span<const MachineSpec* const> specs, AppKind app,
                                     const EdgeList& graph, double scale,
                                     const CancelToken* cancel) {
  if (specs.empty()) return {};
  check_cancel(cancel, "profiler.cell");
  fault_point("profiler.cell");
  check_cancel(cancel, "profiler.cell");  // a stall may have eaten the budget
  WorkloadTraits traits;
  ExecReport kernel;
  {
    PGLB_TRACE_SPAN("profile.cell", "profiler");
    const EdgeList prepared = prepare_graph_for(app, graph);
    traits = traits_from_stats(compute_stats(prepared), scale);
    const std::vector<double> weights{1.0};
    const auto assignment =
        RandomHashPartitioner().partition(prepared, weights, kProfilingPartitionSeed);
    const auto dg = build_distributed(prepared, assignment);
    kernel = run_app(app, prepared, dg, solo(*specs.front()), traits).report;
  }
  std::vector<double> seconds;
  seconds.reserve(specs.size());
  for (const MachineSpec* spec : specs) {
    check_cancel(cancel, "profiler.cell");
    PGLB_TRACE_SPAN("profile.price", "profiler");
    global_registry().count("profiler.cells");
    seconds.push_back(
        price(kernel, solo(*spec), profile_for(app), traits).makespan_seconds);
  }
  return seconds;
}

}  // namespace

double profile_single_machine(const MachineSpec& spec, AppKind app,
                              const EdgeList& graph, double scale,
                              const CancelToken* cancel) {
  const MachineSpec* specs[] = {&spec};
  return profile_on_graph(specs, app, graph, scale, cancel).front();
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

  // One kernel run per (app, proxy) that lacks a machine type, priced for
  // each missing type.  Every run is independent and writes its own slot; a
  // CancelledError (or injected fault) from any run is rethrown by the
  // fan-out before anything is recorded.
  struct Run {
    AppKind app;
    const ProxySuite::Proxy* proxy;
    std::vector<const MachineSpec*> missing;
  };
  std::vector<Run> runs;
  for (const AppKind app : apps) {
    for (const ProxySuite::Proxy& proxy : suite.proxies()) {
      Run run{app, &proxy, {}};
      for (const MachineGroup& group : groups) {
        if (!pool.lookup({app, proxy.alpha, group.representative.name})) {
          run.missing.push_back(&group.representative);
        }
      }
      if (!run.missing.empty()) runs.push_back(std::move(run));
    }
  }
  std::vector<std::vector<double>> times(runs.size());
  parallel_for(pool_or_global(thread_pool), runs.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   times[i] = profile_on_graph(runs[i].missing, runs[i].app,
                                               runs[i].proxy->graph, suite.scale(), cancel);
                 }
               });
  std::size_t cells = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = 0; j < runs[i].missing.size(); ++j, ++cells) {
      pool.record({runs[i].app, runs[i].proxy->alpha, runs[i].missing[j]->name}, times[i][j]);
    }
  }
  return cells;
}

std::vector<double> profile_groups_on_graph(const Cluster& cluster, AppKind app,
                                            const EdgeList& graph, double scale,
                                            const CancelToken* cancel) {
  PGLB_TRACE_SPAN("profile.groups", "profiler");
  const auto groups = group_machines(cluster);
  std::vector<const MachineSpec*> specs;
  for (const MachineGroup& group : groups) {
    specs.push_back(&group.representative);
  }
  return profile_on_graph(specs, app, graph, scale, cancel);
}

}  // namespace pglb
