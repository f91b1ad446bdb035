// Baseline comparison (Sec. VI): static proxy-guided ingress vs Mizan-style
// reactive migration.  For each natural graph, PageRank on the Case 2
// cluster under four regimes:
//   - static uniform (default PowerGraph),
//   - dynamic migration starting from uniform (Mizan-like),
//   - static thread-count ingress (prior work [5]),
//   - static CCR-guided ingress (this paper).
// Expected shape: the reactive controller recovers most of the imbalance but
// pays migration traffic and bad early supersteps; CCR ingress gets there
// from superstep one.

#include "baselines/dynamic_migration.hpp"
#include "bench_common.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Baseline - static CCR ingress vs dynamic migration", "Sec. VI comparison");

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  ProxySuite suite(scale, seed + 100);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);

  Table table({"graph", "uniform (s)", "dynamic (s)", "migrated edges", "prior-work (s)",
               "ccr-guided (s)", "ccr vs dynamic"});

  for (const NamedGraph& g : load_natural_graphs(scale, seed)) {
    const auto traits = traits_from_stats(compute_stats(g.graph), scale);
    const RandomHashPartitioner hash;

    const auto uniform_assignment =
        hash.partition(g.graph, uniform_weights(cluster.size()), seed);
    const auto thread_assignment =
        hash.partition(g.graph, thread_count_weights(cluster), seed);
    const auto ccr = pool.ccr_for(cluster, AppKind::kPageRank, 2.1);
    const auto ccr_assignment = hash.partition(g.graph, ccr, seed);

    DynamicMigrationOptions frozen;
    frozen.migration_aggressiveness = 0.0;
    const auto r_uniform = run_pagerank_with_migration(g.graph, uniform_assignment,
                                                       cluster, traits, frozen);
    const auto r_dynamic =
        run_pagerank_with_migration(g.graph, uniform_assignment, cluster, traits);
    const auto r_prior = run_pagerank_with_migration(g.graph, thread_assignment, cluster,
                                                     traits, frozen);
    const auto r_ccr =
        run_pagerank_with_migration(g.graph, ccr_assignment, cluster, traits, frozen);

    table.row()
        .cell(g.name)
        .cell(r_uniform.report.makespan_seconds, 3)
        .cell(r_dynamic.report.makespan_seconds, 3)
        .cell(static_cast<std::uint64_t>(r_dynamic.edges_migrated))
        .cell(r_prior.report.makespan_seconds, 3)
        .cell(r_ccr.report.makespan_seconds, 3)
        .cell(format_speedup(r_dynamic.report.makespan_seconds /
                             r_ccr.report.makespan_seconds));
  }
  emit_table(table, csv);

  std::cout << "\nDynamic balancing reacts from a cold uniform start; proxy-guided\n"
               "ingress starts balanced and ships zero migration traffic.\n";
  return 0;
}
