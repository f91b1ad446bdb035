// Figure 9 (a-d): Case 1 — heterogeneous EC2 cluster of m4.2xlarge and
// c4.2xlarge nodes.  Prior work [5] sees identical thread counts and
// partitions uniformly; CCR-guided partitioning exploits the ~1.2x real gap.
// One table per application: per graph x partitioning algorithm, the
// prior-work runtime, the CCR runtime, and the speedup.
//
// The cluster uses two nodes of each type (4 total, a perfect square) so all
// five partitioning algorithms of Sec. II apply, matching Fig. 9's x-axis.

#include "bench_common.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // Partitioner hashes are seed-dependent; averaging over several partition
  // seeds smooths heuristic noise (the paper averages over repeated runs).
  const auto trials = static_cast<std::uint64_t>(cli.get_int("trials", 1));
  const bool csv = cli.get_bool("csv", false);
  // --trace-out=<path>: also emit one Chrome trace replaying the PageRank run
  // on the first graph once per estimator, each on its own virtual track.
  const std::string trace_out = cli.get_string("trace-out", "");
  check_unused_flags(cli);

  print_header("Fig. 9 - Case 1: m4.2xlarge + c4.2xlarge EC2 cluster", "Fig. 9a-9d");

  const auto& m4 = machine_by_name("m4.2xlarge");
  const auto& c4 = machine_by_name("c4.2xlarge");
  const Cluster cluster({m4, m4, c4, c4});

  const auto graphs = load_natural_graphs(scale, seed);
  ProxySuite suite(scale, seed + 100);
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, kAllApps);

  const ProxyCcrEstimator ccr(pool);
  const ThreadCountEstimator prior;  // == uniform here: equal thread counts

  FlowOptions options;
  options.scale = scale;
  options.seed = seed;

  double grand_total = 0.0;
  int grand_samples = 0;
  double best = 0.0;
  std::string best_at;

  for (std::size_t panel = 0; panel < std::size(kAllApps); ++panel) {
    const AppKind app = kAllApps[panel];
    Table table({"graph", "partitioner", "prior-work (s)", "ccr-guided (s)", "speedup"});
    std::vector<double> speedups;
    for (const NamedGraph& g : graphs) {
      for (const PartitionerKind kind : all_partitioner_kinds()) {
        options.partitioner = kind;
        double prior_seconds = 0.0, ccr_seconds = 0.0;
        for (std::uint64_t trial = 0; trial < trials; ++trial) {
          options.seed = seed + trial;
          prior_seconds +=
              run_flow(g.graph, app, cluster, prior, options).app.report.makespan_seconds;
          ccr_seconds +=
              run_flow(g.graph, app, cluster, ccr, options).app.report.makespan_seconds;
        }
        prior_seconds /= static_cast<double>(trials);
        ccr_seconds /= static_cast<double>(trials);
        const double speedup = prior_seconds / ccr_seconds;
        speedups.push_back(speedup);
        grand_total += speedup;
        ++grand_samples;
        if (speedup > best) {
          best = speedup;
          best_at = g.name + "/" + to_string(kind) + "/" + short_app_name(app);
        }
        table.row()
            .cell(g.name)
            .cell(to_string(kind))
            .cell(prior_seconds, 3)
            .cell(ccr_seconds, 3)
            .cell(format_speedup(speedup));
      }
    }
    std::cout << "--- Fig. 9" << static_cast<char>('a' + panel) << ": "
              << short_app_name(app) << " ---\n";
    emit_table(table, csv);
    std::cout << "mean speedup: " << format_speedup(mean_of(speedups)) << "\n\n";
  }

  std::cout << "overall mean speedup: " << format_speedup(grand_total / grand_samples)
            << "   (paper: 1.16x average over prior work in Case 1)\n";
  std::cout << "best: " << format_speedup(best) << " at " << best_at
            << "   (paper: 1.45x max, CC/hybrid/amazon)\n";

  if (!trace_out.empty()) {
    options.seed = seed;
    options.partitioner = PartitionerKind::kRandomHash;
    write_estimator_trace(trace_out, graphs.front().graph, cluster,
                          {{"prior-work (thread counts)", &prior}, {"ccr-guided", &ccr}},
                          options);
  }
  return 0;
}
