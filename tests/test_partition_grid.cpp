#include <gtest/gtest.h>

#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "partition/metrics.hpp"
#include "partition/weights.hpp"

namespace pglb {
namespace {

EdgeList sample_graph() {
  PowerLawConfig config;
  config.num_vertices = 12'000;
  config.alpha = 2.1;
  config.seed = 31;
  return generate_powerlaw(config);
}

std::unique_ptr<Partitioner> grid() { return make_partitioner(PartitionerKind::kGrid); }

TEST(Grid, RequiresSquareMachineCount) {
  const auto g = sample_graph();
  const auto p = grid();
  EXPECT_THROW(p->partition(g, uniform_weights(2), 1), std::invalid_argument);
  EXPECT_THROW(p->partition(g, uniform_weights(3), 1), std::invalid_argument);
  EXPECT_NO_THROW(p->partition(g, uniform_weights(1), 1));
  EXPECT_NO_THROW(p->partition(g, uniform_weights(4), 1));
  EXPECT_NO_THROW(p->partition(g, uniform_weights(9), 1));
}

TEST(Grid, AssignsAllEdges) {
  const auto g = sample_graph();
  const auto a = grid()->partition(g, uniform_weights(9), 1);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
  for (const MachineId m : a.edge_to_machine) EXPECT_LT(m, 9u);
}

TEST(Grid, ReplicasBoundedByConstraintCross) {
  // The defining Grid property (Sec. II-B3): each vertex's replicas live in
  // one row + one column, so at most 2*sqrt(M) - 1 machines.
  const auto g = sample_graph();
  const MachineId machines = 9;  // side 3 -> bound 5
  const auto a = grid()->partition(g, uniform_weights(machines), 5);

  std::vector<std::uint64_t> replicas(g.num_vertices(), 0);
  EdgeId index = 0;
  for (const Edge& e : g.edges()) {
    const MachineId m = a.edge_to_machine[index++];
    replicas[e.src] |= std::uint64_t{1} << m;
    replicas[e.dst] |= std::uint64_t{1} << m;
  }
  for (const std::uint64_t mask : replicas) {
    EXPECT_LE(__builtin_popcountll(mask), 5);
  }
}

TEST(Grid, LowerReplicationThanTheoreticalMax) {
  const auto g = sample_graph();
  const auto weights = uniform_weights(9);
  const auto a = grid()->partition(g, weights, 1);
  const auto metrics = compute_partition_metrics(g, a, weights);
  EXPECT_LT(metrics.replication_factor, 5.0);
  EXPECT_GE(metrics.replication_factor, 1.0);
}

TEST(Grid, BalancesUniformLoads) {
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto a = grid()->partition(g, weights, 1);
  const auto metrics = compute_partition_metrics(g, a, weights);
  EXPECT_LT(metrics.weighted_imbalance, 1.25);
}

TEST(Grid, SkewedWeightsShiftLoad) {
  const auto g = sample_graph();
  const std::vector<double> weights = {1.0, 1.0, 1.0, 5.0};
  const auto a = grid()->partition(g, weights, 1);
  const auto counts = a.machine_edge_counts();
  // The heavy machine must receive the largest share.
  for (MachineId m = 0; m < 3; ++m) EXPECT_GT(counts[3], counts[m]);
}

TEST(Grid, Deterministic) {
  const auto g = sample_graph();
  const auto a = grid()->partition(g, uniform_weights(4), 2);
  const auto b = grid()->partition(g, uniform_weights(4), 2);
  EXPECT_EQ(a.edge_to_machine, b.edge_to_machine);
}

}  // namespace
}  // namespace pglb
