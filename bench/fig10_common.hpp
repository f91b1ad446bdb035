#pragma once
// Shared driver for Fig. 10a/10b: local two-machine clusters, comparing the
// default system (uniform), prior work (thread counts) and CCR-guided
// partitioning on runtime and energy.

#include "bench_common.hpp"

namespace pglb::bench {

inline void run_local_case(const Cluster& cluster, double scale, std::uint64_t seed,
                           const std::string& paper_speedups,
                           const std::string& trace_out = "") {
  const auto graphs = load_natural_graphs(scale, seed);
  ProxySuite suite(scale, seed + 100);
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, kAllApps);

  const UniformEstimator uniform;
  const ThreadCountEstimator prior;
  const ProxyCcrEstimator ccr(pool);

  FlowOptions options;
  options.scale = scale;
  options.seed = seed;
  options.partitioner = PartitionerKind::kRandomHash;  // PowerGraph's default ingress

  Table table({"app", "prior speedup", "ccr speedup", "prior energy save", "ccr energy save"});
  std::vector<double> prior_speedups, ccr_speedups, prior_saves, ccr_saves;
  double ccr_best = 0.0;

  for (const AppKind app : kAllApps) {
    std::vector<double> app_prior_s, app_ccr_s, app_prior_e, app_ccr_e;
    for (const NamedGraph& g : graphs) {
      const auto r_default = run_flow(g.graph, app, cluster, uniform, options);
      const auto r_prior = run_flow(g.graph, app, cluster, prior, options);
      const auto r_ccr = run_flow(g.graph, app, cluster, ccr, options);

      app_prior_s.push_back(r_default.app.report.makespan_seconds /
                            r_prior.app.report.makespan_seconds);
      app_ccr_s.push_back(r_default.app.report.makespan_seconds /
                          r_ccr.app.report.makespan_seconds);
      app_prior_e.push_back(1.0 - r_prior.app.report.total_joules /
                                      r_default.app.report.total_joules);
      app_ccr_e.push_back(1.0 - r_ccr.app.report.total_joules /
                                    r_default.app.report.total_joules);
      ccr_best = std::max(ccr_best, app_ccr_s.back());
    }
    table.row()
        .cell(short_app_name(app))
        .cell(format_speedup(mean_of(app_prior_s)))
        .cell(format_speedup(mean_of(app_ccr_s)))
        .cell(format_percent(mean_of(app_prior_e)))
        .cell(format_percent(mean_of(app_ccr_e)));
    prior_speedups.push_back(mean_of(app_prior_s));
    ccr_speedups.push_back(mean_of(app_ccr_s));
    prior_saves.push_back(mean_of(app_prior_e));
    ccr_saves.push_back(mean_of(app_ccr_e));
  }
  table.print(std::cout);

  std::cout << "\naverages vs default system:\n";
  std::cout << "  prior work: " << format_speedup(mean_of(prior_speedups)) << " speedup, "
            << format_percent(mean_of(prior_saves)) << " energy saved\n";
  std::cout << "  ccr-guided: " << format_speedup(mean_of(ccr_speedups)) << " speedup ("
            << format_speedup(ccr_best) << " max), " << format_percent(mean_of(ccr_saves))
            << " energy saved\n";
  std::cout << "  (paper: " << paper_speedups << ")\n";

  if (!trace_out.empty()) {
    write_estimator_trace(trace_out, graphs.front().graph, cluster,
                          {{"default (uniform)", &uniform},
                           {"prior-work (thread counts)", &prior},
                           {"ccr-guided", &ccr}},
                          options);
  }
}

}  // namespace pglb::bench
