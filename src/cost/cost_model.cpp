#include "cost/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/profiler.hpp"

namespace pglb {

std::vector<CostPoint> cost_efficiency(std::span<const MachineSpec> machines,
                                       std::span<const AppKind> apps,
                                       const ProxySuite& suite,
                                       const std::string& baseline, double alpha) {
  if (machines.empty() || apps.empty()) {
    throw std::invalid_argument("cost_efficiency: machines and apps must be non-empty");
  }
  const ProxySuite::Proxy& proxy = suite.nearest(alpha);
  const Cluster cluster{std::vector<MachineSpec>(machines.begin(), machines.end())};
  const auto groups = group_machines(cluster);

  std::vector<CostPoint> points;
  points.reserve(machines.size() * apps.size());
  for (const AppKind app : apps) {
    const auto runtimes = expand_group_values(
        cluster, groups, profile_groups_on_graph(cluster, app, proxy.graph, suite.scale()));
    double baseline_time = 0.0;
    for (std::size_t j = 0; j < machines.size(); ++j) {
      if (machines[j].name == baseline) baseline_time = runtimes[j];
    }
    if (baseline_time == 0.0) {
      throw std::invalid_argument("cost_efficiency: baseline machine '" + baseline +
                                  "' not in list");
    }

    double max_cost = 0.0;
    std::vector<CostPoint> app_points;
    for (std::size_t j = 0; j < machines.size(); ++j) {
      CostPoint p;
      p.machine = machines[j].name;
      p.app = app;
      p.runtime_seconds = runtimes[j];
      p.speedup = baseline_time / runtimes[j];
      p.cost_per_task = runtimes[j] / 3600.0 * machines[j].cost_per_hour;
      max_cost = std::max(max_cost, p.cost_per_task);
      app_points.push_back(std::move(p));
    }
    for (CostPoint& p : app_points) {
      p.relative_cost = max_cost > 0.0 ? p.cost_per_task / max_cost : 0.0;
      points.push_back(std::move(p));
    }
  }
  return points;
}

double cluster_cost_per_task(const Cluster& cluster, double makespan_seconds) {
  if (makespan_seconds < 0.0) {
    throw std::invalid_argument("cluster_cost_per_task: negative makespan");
  }
  double rate_per_hour = 0.0;
  for (const MachineSpec& m : cluster.machines()) rate_per_hour += m.cost_per_hour;
  return makespan_seconds / 3600.0 * rate_per_hour;
}

}  // namespace pglb
