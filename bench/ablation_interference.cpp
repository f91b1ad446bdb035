// Ablation: static proxy-guided ingress vs reactive migration under
// multi-tenant interference.
//
// The paper's CCRs are measured offline; if a machine transiently slows down
// mid-run (noisy neighbour on EC2), the static split is wrong until the event
// passes.  This bench quantifies when the Mizan-style reactive baseline
// overtakes static CCR ingress: sweep the interference intensity on the big
// machine and report both policies' makespans.

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

  print_header("Ablation - static CCR vs reactive migration under interference",
               "multi-tenant robustness");

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  ProxySuite suite(scale, seed + 100);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);
  const auto ccr = pool.ccr_for(cluster, AppKind::kPageRank, 2.1);

  const auto graph = make_corpus_graph(corpus_entry("citation"), scale, seed);
  const auto traits = traits_from_stats(compute_stats(graph), scale);
  const auto ccr_assignment = RandomHashPartitioner{}.partition(graph, ccr, seed);

  Table table({"slowdown of fast machine", "static ccr (s)", "reactive (s)",
               "migrated edges", "winner"});
  for (const double slowdown : {1.0, 0.8, 0.6, 0.4, 0.25}) {
    DynamicMigrationOptions base;
    base.pagerank.max_iterations = 20;
    if (slowdown < 1.0) {
      // The event hits the big machine for the middle half of the run.
      base.pagerank.interference = InterferenceSchedule(
          {{.machine = 1, .from_step = 5, .to_step = 15, .slowdown = slowdown}});
    }

    DynamicMigrationOptions frozen = base;
    frozen.migration_aggressiveness = 0.0;
    const auto r_static =
        run_pagerank_with_migration(graph, ccr_assignment, cluster, traits, frozen);
    const auto r_reactive =
        run_pagerank_with_migration(graph, ccr_assignment, cluster, traits, base);

    table.row()
        .cell(slowdown == 1.0 ? std::string("none")
                              : format_percent(1.0 - slowdown) + " slower")
        .cell(r_static.report.makespan_seconds, 3)
        .cell(r_reactive.report.makespan_seconds, 3)
        .cell(static_cast<std::uint64_t>(r_reactive.edges_migrated))
        .cell(r_reactive.report.makespan_seconds < r_static.report.makespan_seconds
                  ? "reactive"
                  : "static");
  }
  emit_table(table, csv);

  std::cout << "\nWith stable machines the static CCR split is already optimal and\n"
               "migration only adds traffic; as interference grows, reacting wins —\n"
               "static ingress and runtime balancing are complements, not rivals.\n";
  return 0;
}
