// Ablation (future work, Sec. III-B): communication-aware weight refinement
// on top of CCR.  For each app x graph on the Case 2 cluster, compare plain
// CCR shares against the theta-refined shares (analytic replication model),
// both executed for real through the flow.

#include "bench_common.hpp"
#include "core/comm_aware.hpp"

using namespace pglb;
using namespace pglb::bench;

namespace {

/// Estimator wrapper exposing comm-aware shares to run_flow().
class CommAwareEstimator final : public CapabilityEstimator {
 public:
  CommAwareEstimator(const TimeDatabase& pool, double scale) : pool_(&pool), scale_(scale) {}

  std::string name() const override { return "comm_aware_ccr"; }

  std::vector<double> weights(const Cluster& cluster, AppKind app, const EdgeList& graph,
                              const GraphStats& stats) const override {
    const auto capabilities = pool_->ccr_for(cluster, app, stats.empirical_alpha);
    const auto traits = traits_from_stats(stats, scale_);
    const auto hist = total_degree_histogram(graph);
    return comm_aware_shares(cluster, profile_for(app), traits, hist, graph.num_edges(),
                             capabilities)
        .shares;
  }

 private:
  const TimeDatabase* pool_;
  double scale_;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool csv = cli.get_bool("csv", false);
  check_unused_flags(cli);

  print_header("Ablation - comm-aware refinement of CCR shares", "Sec. III-B future work");

  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  ProxySuite suite(scale, seed + 100);
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, kAllApps);

  const ProxyCcrEstimator plain(pool);
  const CommAwareEstimator refined(pool, scale);

  FlowOptions options;
  options.scale = scale;
  options.seed = seed;
  options.partitioner = PartitionerKind::kRandomHash;

  Table table({"app", "graph", "ccr (s)", "comm-aware (s)", "gain"});
  std::vector<double> gains;
  for (const AppKind app : kAllApps) {
    for (const NamedGraph& g : load_natural_graphs(scale, seed)) {
      const auto r_plain = run_flow(g.graph, app, cluster, plain, options);
      const auto r_refined = run_flow(g.graph, app, cluster, refined, options);
      const double gain = r_plain.app.report.makespan_seconds /
                          r_refined.app.report.makespan_seconds;
      gains.push_back(gain);
      table.row()
          .cell(short_app_name(app))
          .cell(g.name)
          .cell(r_plain.app.report.makespan_seconds, 3)
          .cell(r_refined.app.report.makespan_seconds, 3)
          .cell(format_speedup(gain));
    }
  }
  emit_table(table, csv);
  std::cout << "\nmean gain of the refinement: " << format_speedup(geomean(gains))
            << " (1.00x = the shared-exchange traffic is already negligible)\n";
  return 0;
}
