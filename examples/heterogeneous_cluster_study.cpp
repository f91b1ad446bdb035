// Scenario: you operate a mixed EC2 fleet and want to know, for a specific
// graph and application, which partitioning algorithm and capability
// estimator to deploy.  Sweeps all applicable partitioners x estimators and
// prints runtime, energy, replication factor and balance.
//
// Usage:
//   heterogeneous_cluster_study [--graph=social_network] [--app=pagerank]
//       [--machines=m4.2xlarge,c4.2xlarge,c4.4xlarge,c4.xlarge]
//       [--scale=0.004] [--seed=1]

#include <iostream>
#include <sstream>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "machine/catalog.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pglb;

namespace {

AppKind app_from_string(const std::string& name) {
  for (const AppKind kind : {AppKind::kPageRank, AppKind::kColoring,
                             AppKind::kConnectedComponents, AppKind::kTriangleCount}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown app '" + name + "' (pagerank, coloring, "
                              "connected_components, triangle_count)");
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0 / 256.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string graph_name = cli.get_string("graph", "social_network");
  const AppKind app = app_from_string(cli.get_string("app", "pagerank"));
  const auto machine_names =
      split_csv(cli.get_string("machines", "m4.2xlarge,c4.2xlarge,c4.4xlarge,c4.xlarge"));

  const Cluster cluster = cluster_from_names(machine_names);
  std::cout << "cluster: " << cluster.label() << " (" << cluster.total_compute_threads()
            << " compute threads)\napp: " << to_string(app) << ", graph: " << graph_name
            << "\n\n";

  const EdgeList graph = make_corpus_graph(corpus_entry(graph_name), scale, seed);
  ProxySuite proxies(scale, seed + 100);
  const AppKind apps[] = {app};
  TimeDatabase pool;
  profile_cluster(pool, cluster, proxies, apps);

  const UniformEstimator uniform;
  const ThreadCountEstimator threads;
  const ProxyCcrEstimator ccr(pool);
  const CapabilityEstimator* estimators[] = {&uniform, &threads, &ccr};

  FlowOptions options;
  options.scale = scale;
  options.seed = seed;

  Table table({"partitioner", "estimator", "runtime (s)", "energy (kJ)", "replication",
               "imbalance", "speedup vs uniform"});
  for (const PartitionerKind kind : applicable_partitioner_kinds(cluster.size())) {
    double uniform_runtime = 0.0;
    for (const CapabilityEstimator* estimator : estimators) {
      options.partitioner = kind;
      const FlowResult r = run_flow(graph, app, cluster, *estimator, options);
      if (estimator == &uniform) uniform_runtime = r.app.report.makespan_seconds;
      table.row()
          .cell(to_string(kind))
          .cell(estimator->name())
          .cell(r.app.report.makespan_seconds, 3)
          .cell(r.app.report.total_joules / 1e3, 2)
          .cell(r.replication_factor, 3)
          .cell(r.partition.weighted_imbalance, 3)
          .cell(format_speedup(uniform_runtime / r.app.report.makespan_seconds));
    }
  }
  table.print(std::cout);

  const auto unused = cli.unused_keys();
  if (!unused.empty()) {
    std::cerr << "\nwarning: unused flags were ignored\n";
    return 2;
  }
  return 0;
}
