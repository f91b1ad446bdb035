// Ablation (Sec. II): partitioner quality on a heterogeneous cluster.
// For each algorithm x weight policy: replication factor, balance against
// the target shares, and end-to-end PageRank runtime.  Shows the paper's
// design-space trade-off — mixed cuts (hybrid/ginger) buy low replication,
// the hash/greedy family buys tight balance, and CCR weights help all of
// them.

#include "bench_common.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string graph_name = cli.get_string("graph", "social_network");
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Ablation - partitioning algorithms x weight policies", "Sec. II design space");

  const auto& m4 = machine_by_name("m4.2xlarge");
  const auto& c4 = machine_by_name("c4.2xlarge");
  const auto& big = machine_by_name("c4.4xlarge");
  const Cluster cluster({m4, c4, big, big});

  const auto graph = make_corpus_graph(corpus_entry(graph_name), scale, seed);
  ProxySuite suite(scale, seed + 100);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);

  const UniformEstimator uniform;
  const ProxyCcrEstimator ccr(pool);
  const CapabilityEstimator* estimators[] = {&uniform, &ccr};

  Table table({"partitioner", "weights", "replication", "imbalance vs target",
               "pagerank runtime (s)"});
  FlowOptions options;
  options.scale = scale;
  options.seed = seed;

  for (const PartitionerKind kind : extended_partitioner_kinds()) {
    for (const CapabilityEstimator* estimator : estimators) {
      options.partitioner = kind;
      const auto result = run_flow(graph, AppKind::kPageRank, cluster, *estimator, options);
      table.row()
          .cell(to_string(kind))
          .cell(estimator->name())
          .cell(result.replication_factor, 3)
          .cell(result.partition.weighted_imbalance, 3)
          .cell(result.app.report.makespan_seconds, 3);
    }
  }
  emit_table(table, csv);

  std::cout << "\ngraph: " << graph_name << " at scale " << format_double(scale, 4)
            << "; cluster: " << cluster.label() << "\n";
  return 0;
}
