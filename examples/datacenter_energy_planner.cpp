// Scenario: a data-center operator is adding wimpy (ARM-like) nodes next to
// beefy Xeons and wants to know how aggressively the small nodes can be
// derated before a graph workload's latency/energy trade-off collapses —
// and how much proxy-guided balancing recovers at each point.  This extends
// the paper's Case 3 (one frequency point) into a frequency sweep.
//
// Usage: datacenter_energy_planner [--app=connected_components] [--scale=0.004]

#include <iostream>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "machine/catalog.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pglb;

namespace {

AppKind app_from_string(const std::string& name) {
  for (const AppKind kind : {AppKind::kPageRank, AppKind::kColoring,
                             AppKind::kConnectedComponents, AppKind::kTriangleCount}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown app '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const AppKind app = app_from_string(cli.get_string("app", "connected_components"));

  const EdgeList graph = make_corpus_graph(corpus_entry("citation"), scale, seed);
  const AppKind apps[] = {app};

  std::cout << "Derating sweep of xeon_server_s next to xeon_server_l, app = "
            << to_string(app) << "\n\n";

  Table table({"S frequency", "CCR (profiled)", "thread ratio", "ccr vs prior speedup",
               "ccr energy save", "prior energy save"});

  for (const double ghz : {2.5, 2.2, 2.0, 1.8, 1.6, 1.4}) {
    const auto& base_s = machine_by_name("xeon_server_s");
    const MachineSpec small =
        ghz == base_s.freq_ghz ? base_s : with_frequency(base_s, ghz);
    const Cluster cluster({small, machine_by_name("xeon_server_l")});

    // Re-profile: a changed machine type invalidates its CCR pool entries
    // (Sec. III-B re-profiling rule).
    ProxySuite proxies(scale, seed + 100);
    TimeDatabase pool;
    profile_cluster(pool, cluster, proxies, apps);
    const auto ccr_values = pool.ccr_for(cluster, app, 2.1);

    const UniformEstimator uniform;
    const ThreadCountEstimator threads;
    const ProxyCcrEstimator guided(pool);

    FlowOptions options;
    options.scale = scale;
    options.seed = seed;
    options.partitioner = PartitionerKind::kRandomHash;

    const auto r_default = run_flow(graph, app, cluster, uniform, options);
    const auto r_prior = run_flow(graph, app, cluster, threads, options);
    const auto r_ccr = run_flow(graph, app, cluster, guided, options);

    table.row()
        .cell(format_double(ghz, 1) + " GHz")
        .cell("1 : " + format_double(ccr_values[1], 2))
        .cell("1 : 5.00")
        .cell(format_speedup(r_prior.app.report.makespan_seconds /
                             r_ccr.app.report.makespan_seconds))
        .cell(format_percent(1.0 - r_ccr.app.report.total_joules /
                                       r_default.app.report.total_joules))
        .cell(format_percent(1.0 - r_prior.app.report.total_joules /
                                       r_default.app.report.total_joules));
  }
  table.print(std::cout);

  std::cout << "\nThe wider the gap between the profiled CCR and the static 1:5 thread\n"
               "ratio, the more the proxy-guided system recovers — the paper's Case 3\n"
               "conclusion, here as a planning curve.\n";
  return 0;
}
