// The paper's three contributions (Sec. I), reproduced in order in one
// program.  Slower than `quickstart` but narrates every step — start here to
// understand what the library does and why.
//
// Usage: paper_walkthrough [--scale=0.004]

#include <algorithm>
#include <iostream>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "cost/cost_model.hpp"
#include "cost/pareto.hpp"
#include "gen/alpha_solver.hpp"
#include "gen/corpus.hpp"
#include "machine/catalog.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

using namespace pglb;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);

  std::cout <<
      "==========================================================================\n"
      "Contribution 1: synthetic power-law proxies measure machine capability\n"
      "==========================================================================\n";

  // A heterogeneous pair that prior work [5] would call 1 : 5 (thread counts).
  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  std::cout << "cluster: " << cluster.label() << "  (thread-count ratio 1 : "
            << format_double(static_cast<double>(cluster.machine(1).compute_threads) /
                                 cluster.machine(0).compute_threads,
                             1)
            << ")\n\n";

  // Generate the three Table II proxies and profile all four paper apps.
  ProxySuite proxies(scale);
  const AppKind apps[] = {AppKind::kPageRank, AppKind::kColoring,
                          AppKind::kConnectedComponents, AppKind::kTriangleCount};
  TimeDatabase pool;
  profile_cluster(pool, cluster, proxies, apps);

  Table ccr_table({"app", "proxy CCR", "real-graph CCR (oracle)", "error"});
  const auto probe = make_corpus_graph(corpus_entry("citation"), scale);
  for (const AppKind app : apps) {
    const double proxy_ccr = pool.ccr_for(cluster, app, 2.1)[1];
    const auto oracle_times = profile_groups_on_graph(cluster, app, probe, scale);
    const double oracle_ccr = oracle_times[0] / oracle_times[1];
    ccr_table.row()
        .cell(to_string(app))
        .cell("1 : " + format_double(proxy_ccr, 2))
        .cell("1 : " + format_double(oracle_ccr, 2))
        .cell(format_percent(relative_error(proxy_ccr, oracle_ccr)));
  }
  ccr_table.print(std::cout);
  std::cout << "-> proxies recover per-app capability within a few percent, while\n"
               "   the hardware-configuration estimate (1 : 5) misses by ~50%.\n\n";

  std::cout <<
      "==========================================================================\n"
      "Contribution 2: CCR-guided partitioning -> speedups and energy savings\n"
      "==========================================================================\n";

  const ProxyCcrEstimator ccr(pool);
  const ThreadCountEstimator prior;
  const UniformEstimator uniform;
  FlowOptions options;
  options.scale = scale;
  options.partitioner = PartitionerKind::kHybrid;

  Table run_table({"policy", "pagerank makespan (s)", "energy (kJ)", "idle share"});
  const auto graph = make_corpus_graph(corpus_entry("social_network"), scale);
  const CapabilityEstimator* estimators[] = {&uniform, &prior, &ccr};
  for (const CapabilityEstimator* estimator : estimators) {
    const auto r = run_flow(graph, AppKind::kPageRank, cluster, *estimator, options);
    run_table.row()
        .cell(estimator->name())
        .cell(r.app.report.makespan_seconds, 3)
        .cell(r.app.report.total_joules / 1e3, 2)
        .cell(format_percent(r.app.report.idle_fraction()));
  }
  run_table.print(std::cout);
  std::cout << "-> idle time at the barrier is what CCR weights eliminate; energy\n"
               "   follows the idle share down.\n\n";

  std::cout <<
      "==========================================================================\n"
      "Contribution 3: proxy profiling ranks cloud machines by cost efficiency\n"
      "==========================================================================\n";

  const std::vector<MachineSpec> machines = {
      machine_by_name("c4.xlarge"), machine_by_name("c4.2xlarge"),
      machine_by_name("c4.4xlarge"), machine_by_name("c4.8xlarge")};
  const AppKind one_app[] = {AppKind::kPageRank};
  const auto points = cost_efficiency(machines, one_app, proxies, "c4.xlarge");
  const auto frontier = pareto_frontier(points);

  Table cost_table({"machine", "speedup", "cost/task ($)", "pareto-optimal"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool on_frontier =
        std::find(frontier.begin(), frontier.end(), i) != frontier.end();
    cost_table.row()
        .cell(points[i].machine)
        .cell(format_speedup(points[i].speedup))
        .cell(points[i].cost_per_task, 5)
        .cell(on_frontier ? "yes" : "");
  }
  cost_table.print(std::cout);
  std::cout << "-> all numbers above came from the proxies alone: no cluster was\n"
               "   rented, no production graph was touched (Sec. V-C).\n";
  return 0;
}
