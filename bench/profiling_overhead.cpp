// Profiling-overhead amortisation (Sec. III-B: "each profiling set only
// needs to be executed once... All generated CCR information is reusable
// over future executions, as graph applications are often reused to analyze
// dozens of different real world graphs").
//
// Quantifies the break-even point: how many production runs pay back the
// one-time proxy generation + profiling cost?

#include "bench_common.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

using namespace pglb;
using namespace pglb::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Profiling-overhead amortisation", "Sec. III-B one-time-cost argument");

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});

  // One-time cost, in *virtual* seconds: generating proxies is host work (the
  // paper reports 67 s at full size); profiling runs are virtual executions.
  // profile_cluster fans the (app, proxy, machine type) cells out over the
  // global pool; the virtual totals are thread-count-invariant, only the host
  // wall-clock shrinks.
  ProxySuite suite(scale, seed + 100);
  const Stopwatch profile_timer;
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, kAllApps);
  const double profiling_wall_seconds = profile_timer.seconds();
  double profiling_virtual_seconds = 0.0;
  for (const auto& [key, seconds] : pool.entries()) profiling_virtual_seconds += seconds;

  // Per-run payoff: time saved by CCR vs prior work on each (app, graph).
  const ProxyCcrEstimator ccr(pool);
  const ThreadCountEstimator prior;
  FlowOptions options;
  options.scale = scale;
  options.seed = seed;
  options.partitioner = PartitionerKind::kRandomHash;

  Table table({"app", "mean run (prior) s", "mean run (ccr) s", "saved/run s",
               "runs to amortise profiling"});
  double total_saved = 0.0;
  for (const AppKind app : kAllApps) {
    double prior_total = 0.0, ccr_total = 0.0;
    int runs = 0;
    for (const NamedGraph& g : load_natural_graphs(scale, seed)) {
      prior_total += run_flow(g.graph, app, cluster, prior, options)
                         .app.report.makespan_seconds;
      ccr_total += run_flow(g.graph, app, cluster, ccr, options)
                       .app.report.makespan_seconds;
      ++runs;
    }
    const double saved = (prior_total - ccr_total) / runs;
    total_saved += saved;
    table.row()
        .cell(short_app_name(app))
        .cell(prior_total / runs, 3)
        .cell(ccr_total / runs, 3)
        .cell(saved, 3)
        .cell(saved > 0 ? format_double(profiling_virtual_seconds / 4.0 / saved, 1)
                        : std::string("-"));
  }
  emit_table(table, csv);

  std::cout << "\none-time profiling cost: " << format_double(profiling_virtual_seconds, 2)
            << " virtual s total (" << format_double(suite.generation_seconds(), 2)
            << " host s proxy generation, " << format_double(profiling_wall_seconds, 3)
            << " host s profiler wall-clock on " << global_pool().threads()
            << " pool threads)\n";
  std::cout << "mean saving per production run: " << format_double(total_saved / 4.0, 3)
            << " s.  Break-even arrives fastest for the heavy apps (TC), and the\n"
            << "pool is shared by every future graph, cluster composition and run —\n"
            << "the paper's amortisation argument (profiling sets execute once per\n"
            << "machine *type*, not per job).\n";
  return 0;
}
