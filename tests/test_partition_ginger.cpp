#include "partition/ginger.hpp"

#include <gtest/gtest.h>

#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "partition/metrics.hpp"
#include "partition/weights.hpp"

namespace pglb {
namespace {

EdgeList sample_graph() {
  PowerLawConfig config;
  config.num_vertices = 15'000;
  config.alpha = 2.0;
  config.seed = 51;
  return generate_powerlaw(config);
}

TEST(Ginger, AssignsEveryEdge) {
  const auto g = sample_graph();
  const auto a = GingerPartitioner().partition(g, uniform_weights(4), 1);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
  for (const MachineId m : a.edge_to_machine) EXPECT_LT(m, 4u);
}

TEST(Ginger, LowDegreeInEdgesStayColocated) {
  // Ginger moves low-degree groups as units; the colocated property of the
  // first pass must survive the reassignment round.
  const auto g = sample_graph();
  GingerOptions options;
  const auto a = GingerPartitioner(options).partition(g, uniform_weights(4), 1);

  const auto in_degree = g.in_degrees();
  std::vector<MachineId> home(g.num_vertices(), kInvalidMachine);
  EdgeId index = 0;
  for (const Edge& e : g.edges()) {
    const MachineId m = a.edge_to_machine[index++];
    if (in_degree[e.dst] > options.high_degree_threshold) continue;
    if (home[e.dst] == kInvalidMachine) {
      home[e.dst] = m;
    } else {
      EXPECT_EQ(home[e.dst], m);
    }
  }
}

TEST(Ginger, ImprovesReplicationOverHybrid) {
  // The Fennel locality score exists to cut mirrors below plain Hybrid
  // (Sec. II-C1: "minimal replication in the second round").
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto hybrid = make_partitioner(PartitionerKind::kHybrid)->partition(g, weights, 1);
  const auto ginger = GingerPartitioner().partition(g, weights, 1);
  EXPECT_LE(compute_partition_metrics(g, ginger, weights).replication_factor,
            compute_partition_metrics(g, hybrid, weights).replication_factor * 1.02);
}

TEST(Ginger, HeterogeneityFactorShiftsLoad) {
  // Sec. II-C1: 1/CCR_p in the balance function makes fast machines score
  // better and absorb more of the graph.
  const auto g = sample_graph();
  const std::vector<double> weights = {1.0, 3.5};
  const auto a = GingerPartitioner().partition(g, weights, 1);
  const auto counts = a.machine_edge_counts();
  const double share1 =
      static_cast<double>(counts[1]) / static_cast<double>(g.num_edges());
  EXPECT_GT(share1, 0.62);  // clearly above the uniform 0.5
  EXPECT_LT(share1, 0.92);  // but not a total collapse onto one machine
}

TEST(Ginger, BalanceGuardBoundsImbalanceForAnyGamma) {
  // The hard balance guard (not gamma alone) keeps the weighted imbalance
  // bounded, even when the Fennel penalty is turned almost off.
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  for (const double gamma : {0.05, 1.5, 8.0}) {
    GingerOptions options;
    options.gamma = gamma;
    const auto a = GingerPartitioner(options).partition(g, weights, 1);
    const auto m = compute_partition_metrics(g, a, weights);
    EXPECT_LT(m.weighted_imbalance, 1.35) << "gamma=" << gamma;
  }
}

TEST(Ginger, Deterministic) {
  const auto g = sample_graph();
  const auto a = GingerPartitioner().partition(g, uniform_weights(3), 4);
  const auto b = GingerPartitioner().partition(g, uniform_weights(3), 4);
  EXPECT_EQ(a.edge_to_machine, b.edge_to_machine);
}

}  // namespace
}  // namespace pglb
