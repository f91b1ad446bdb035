#include "core/estimators.hpp"

#include "core/ccr.hpp"
#include "gen/alpha_solver.hpp"
#include "partition/weights.hpp"

namespace pglb {

std::vector<double> UniformEstimator::weights(const Cluster& cluster, AppKind /*app*/,
                                              const EdgeList& /*graph*/,
                                              const GraphStats& /*stats*/) const {
  return uniform_weights(cluster.size());
}

std::vector<double> ThreadCountEstimator::weights(const Cluster& cluster, AppKind /*app*/,
                                                  const EdgeList& /*graph*/,
                                                  const GraphStats& /*stats*/) const {
  return thread_count_weights(cluster);
}

std::vector<double> ProxyCcrEstimator::weights(const Cluster& cluster, AppKind app,
                                               const EdgeList& /*graph*/,
                                               const GraphStats& stats) const {
  // The Eq. 7 fit (a few microseconds) selects the best-matching proxy's
  // CCR set.
  const double alpha = fit_alpha_clamped(stats.num_vertices, stats.num_edges);
  return shares_from_capabilities(pool_->ccr_for(cluster, app, alpha));
}

std::vector<double> OracleEstimator::weights(const Cluster& cluster, AppKind app,
                                             const EdgeList& graph,
                                             const GraphStats& /*stats*/) const {
  const auto times = profile_groups_on_graph(cluster, app, graph, scale_);
  const auto group_ccr = ccr_from_times(times);
  const auto groups = group_machines(cluster);
  const auto per_machine = expand_group_values(cluster, groups, group_ccr);
  return shares_from_capabilities(per_machine);
}

}  // namespace pglb
