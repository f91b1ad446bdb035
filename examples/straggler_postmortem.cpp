// Scenario: a PageRank job ran slower than expected on your heterogeneous
// cluster and you want to know *which machine stalled which supersteps* —
// and whether better ingress weights would have helped.  Uses the engine's
// per-superstep straggler trace to print a post-mortem timeline, then re-runs
// with CCR weights to show the counterfactual.
//
// Usage: straggler_postmortem [--scale=0.004] [--slowdown=0.4]

#include <iostream>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "machine/catalog.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pglb;

namespace {

void print_timeline(const ExecReport& report, const Cluster& cluster) {
  std::cout << "superstep timeline (one row per superstep; '#' scaled to duration):\n";
  double longest = 0.0;
  for (const SuperstepTrace& s : report.trace) longest = std::max(longest, s.window_seconds);
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const SuperstepTrace& s = report.trace[i];
    const int bar = std::max(1, static_cast<int>(40.0 * s.window_seconds / longest));
    std::cout << "  " << (i < 10 ? " " : "") << i << " |" << std::string(bar, '#')
              << std::string(41 - bar, ' ') << "| "
              << format_double(s.window_seconds * 1e3, 1) << " ms, stalled by "
              << cluster.machine(s.straggler).name << "\n";
  }
  for (MachineId m = 0; m < cluster.size(); ++m) {
    std::cout << "  " << cluster.machine(m).name << " stalled "
              << format_percent(report.straggler_fraction(m)) << " of supersteps\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const double slowdown = cli.get_double("slowdown", 0.4);

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  const EdgeList graph = make_corpus_graph(corpus_entry("citation"), scale);
  const auto traits = traits_from_stats(compute_stats(graph), scale);

  // The "incident": uniform ingress plus a mid-run slowdown of the big box.
  PageRankOptions options;
  options.max_iterations = 12;
  options.interference = InterferenceSchedule(
      {{.machine = 1, .from_step = 4, .to_step = 8, .slowdown = slowdown}});

  const auto assignment =
      RandomHashPartitioner{}.partition(graph, uniform_weights(cluster.size()), 1);
  const auto dg = build_distributed(graph, assignment);
  const auto incident = run_pagerank(graph, dg, cluster, traits, options);

  std::cout << "=== incident run (uniform ingress + transient slowdown) ===\n";
  std::cout << incident.report.summary() << "\n\n";
  print_timeline(incident.report, cluster);

  // Counterfactual: CCR-guided ingress under the same interference.
  ProxySuite proxies(scale);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, proxies, apps);
  const auto ccr = pool.ccr_for(cluster, AppKind::kPageRank, 2.1);
  const auto guided_assignment = RandomHashPartitioner{}.partition(graph, ccr, 1);
  const auto guided_dg = build_distributed(graph, guided_assignment);
  const auto counterfactual = run_pagerank(graph, guided_dg, cluster, traits, options);

  std::cout << "\n=== counterfactual (CCR-guided ingress, same interference) ===\n";
  std::cout << counterfactual.report.summary() << "\n\n";
  print_timeline(counterfactual.report, cluster);

  std::cout << "\nverdict: CCR ingress would have been "
            << format_speedup(incident.report.makespan_seconds /
                              counterfactual.report.makespan_seconds)
            << " faster; the supersteps stalled by the slowed machine shrink but do\n"
               "not vanish — transient interference needs runtime balancing on top\n"
               "(see bench/ablation_interference).\n";
  return 0;
}
