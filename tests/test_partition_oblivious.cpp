#include <gtest/gtest.h>

#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "partition/metrics.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"

namespace pglb {
namespace {

EdgeList sample_graph() {
  PowerLawConfig config;
  config.num_vertices = 15'000;
  config.alpha = 2.1;
  config.seed = 21;
  return generate_powerlaw(config);
}

std::unique_ptr<Partitioner> oblivious() { return make_partitioner(PartitionerKind::kOblivious); }

TEST(Oblivious, AssignsEveryEdgeInRange) {
  const auto g = sample_graph();
  const auto a = oblivious()->partition(g, uniform_weights(4), 1);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
  for (const MachineId m : a.edge_to_machine) EXPECT_LT(m, 4u);
}

TEST(Oblivious, LowerReplicationThanRandomHash) {
  // The whole point of the greedy heuristics: fewer mirrors than random.
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto random = RandomHashPartitioner{}.partition(g, weights, 1);
  const auto greedy = oblivious()->partition(g, weights, 1);
  const auto random_metrics = compute_partition_metrics(g, random, weights);
  const auto greedy_metrics = compute_partition_metrics(g, greedy, weights);
  EXPECT_LT(greedy_metrics.replication_factor, random_metrics.replication_factor);
}

TEST(Oblivious, LoadsTrackUniformWeights) {
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto a = oblivious()->partition(g, weights, 1);
  const auto metrics = compute_partition_metrics(g, a, weights);
  // Oblivious is the greedy load-balancer of the family; near-perfect here.
  EXPECT_LT(metrics.weighted_imbalance, 1.05);
}

TEST(Oblivious, LoadsTrackSkewedWeights) {
  const auto g = sample_graph();
  const std::vector<double> weights = {1.0, 3.5};
  const auto a = oblivious()->partition(g, weights, 1);
  const auto counts = a.machine_edge_counts();
  const double share1 =
      static_cast<double>(counts[1]) / static_cast<double>(g.num_edges());
  // Heuristics trade some balance for locality (the paper notes the CCR
  // balance is approximate), but the big machine must carry the big share.
  EXPECT_NEAR(share1, 3.5 / 4.5, 0.08);
}

TEST(Oblivious, Deterministic) {
  const auto g = sample_graph();
  const auto a = oblivious()->partition(g, uniform_weights(3), 9);
  const auto b = oblivious()->partition(g, uniform_weights(3), 9);
  EXPECT_EQ(a.edge_to_machine, b.edge_to_machine);
}

TEST(Oblivious, SharedReplicaCaseReusesMachine) {
  // Two edges sharing both endpoints must land on the same machine (case 1
  // of the heuristic: intersection non-empty).
  EdgeList g(4);
  g.add(0, 1);
  g.add(0, 1);
  const auto a = oblivious()->partition(g, uniform_weights(4), 3);
  EXPECT_EQ(a.edge_to_machine[0], a.edge_to_machine[1]);
}

TEST(Oblivious, FreshVerticesGoToLeastLoadedMachine) {
  // Disjoint edges spread across empty machines before any machine gets a
  // second one.
  EdgeList g(8);
  g.add(0, 1);
  g.add(2, 3);
  g.add(4, 5);
  g.add(6, 7);
  const auto a = oblivious()->partition(g, uniform_weights(4), 3);
  std::vector<bool> used(4, false);
  for (const MachineId m : a.edge_to_machine) used[m] = true;
  for (const bool u : used) EXPECT_TRUE(u);
}

TEST(Oblivious, RejectsTooManyMachines) {
  const auto g = sample_graph();
  EXPECT_THROW(oblivious()->partition(g, uniform_weights(65), 1), std::invalid_argument);
}

}  // namespace
}  // namespace pglb
