// Quickstart: the full proxy-guided load-balancing flow in ~60 lines.
//
//   1. describe a heterogeneous cluster,
//   2. generate the synthetic power-law proxy suite (one-time),
//   3. profile each machine group on the proxies -> CCR pool,
//   4. run an application through the Fig. 7b flow with CCR-guided
//      partitioning, and compare against the homogeneous default.
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart [--scale=0.004]

#include <iostream>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "machine/catalog.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pglb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);

  // 1. A small heterogeneous cluster: one wimpy and one beefy local server.
  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  std::cout << "cluster: " << cluster.label() << "\n";

  // 2. The proxy suite: three Algorithm-1 power-law graphs (Table II alphas).
  ProxySuite proxies(scale);
  std::cout << "generated " << proxies.proxies().size() << " proxies in "
            << format_double(proxies.generation_seconds(), 2) << "s\n";

  // 3. One-time offline profiling: every app x every proxy, one machine per
  //    group, no communication interference.
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, proxies, apps);
  const auto ccr = pool.ccr_for(cluster, AppKind::kPageRank, /*graph_alpha=*/2.1);
  std::cout << "profiled PageRank CCR: " << format_double(ccr[0], 2) << " : "
            << format_double(ccr[1], 2) << "\n";

  // 4. Run PageRank on a natural-graph workload, default vs CCR-guided.
  const EdgeList graph = make_corpus_graph(corpus_entry("wiki"), scale);
  FlowOptions options;
  options.scale = scale;
  options.partitioner = PartitionerKind::kHybrid;

  const UniformEstimator uniform;
  const ProxyCcrEstimator guided(pool);
  const FlowResult before = run_flow(graph, AppKind::kPageRank, cluster, uniform, options);
  const FlowResult after = run_flow(graph, AppKind::kPageRank, cluster, guided, options);

  std::cout << "\ndefault (uniform) : " << before.app.report.summary() << "\n";
  std::cout << "ccr-guided        : " << after.app.report.summary() << "\n";
  std::cout << "speedup: "
            << format_speedup(before.app.report.makespan_seconds /
                              after.app.report.makespan_seconds)
            << ", energy saved: "
            << format_percent(1.0 - after.app.report.total_joules /
                                        before.app.report.total_joules)
            << "\n";
  return 0;
}
