// Scenario: fitting a *new* application into the proxy-guided flow
// (Sec. III-B: "any special-purpose application can be sampled and fit into
// our flow").  SSSP is not one of the paper's four evaluation apps; this
// example profiles it on the proxy suite, inspects its CCR next to the
// others', and runs it CCR-guided end to end.
//
// Usage: custom_app_sssp [--scale=0.004]

#include <iostream>

#include "apps/sssp.hpp"
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

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});

  // Profile SSSP alongside two paper apps to see where it lands.
  ProxySuite proxies(scale);
  const AppKind apps[] = {AppKind::kPageRank, AppKind::kTriangleCount, AppKind::kSssp};
  TimeDatabase pool;
  profile_cluster(pool, cluster, proxies, apps);

  Table ccr_table({"app", "CCR (alpha=2.1 proxy)"});
  for (const AppKind app : apps) {
    const auto ccr = pool.ccr_for(cluster, app, 2.1);
    ccr_table.row().cell(to_string(app)).cell("1 : " + format_double(ccr[1], 2));
  }
  ccr_table.print(std::cout);
  std::cout << "\nSSSP profiles like the propagation apps, not like Triangle Count —\n"
               "exactly why per-application CCRs beat a single hardware number.\n\n";

  // Run it CCR-guided.
  const EdgeList graph = make_corpus_graph(corpus_entry("amazon"), scale);
  const ProxyCcrEstimator guided(pool);
  const UniformEstimator uniform;
  FlowOptions options;
  options.scale = scale;
  options.partitioner = PartitionerKind::kHybrid;

  const auto before = run_flow(graph, AppKind::kSssp, cluster, uniform, options);
  const auto after = run_flow(graph, AppKind::kSssp, cluster, guided, options);
  std::cout << "SSSP from vertex 0: reached "
            << static_cast<std::uint64_t>(after.app.digest) << " vertices\n";
  std::cout << "uniform:    " << before.app.report.summary() << "\n";
  std::cout << "ccr-guided: " << after.app.report.summary() << "\n";
  std::cout << "speedup: "
            << format_speedup(before.app.report.makespan_seconds /
                              after.app.report.makespan_seconds)
            << "\n";
  return 0;
}
