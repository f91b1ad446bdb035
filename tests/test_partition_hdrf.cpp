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
  config.num_vertices = 12'000;
  config.alpha = 2.0;
  config.seed = 111;
  return generate_powerlaw(config);
}

std::unique_ptr<Partitioner> hdrf(const HdrfOptions& options = {}) {
  PartitionerOptions all;
  all.hdrf = options;
  return make_partitioner(PartitionerKind::kHdrf, all);
}

TEST(Hdrf, AssignsEveryEdgeInRange) {
  const auto g = sample_graph();
  const auto a = hdrf()->partition(g, uniform_weights(4), 1);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
  for (const MachineId m : a.edge_to_machine) EXPECT_LT(m, 4u);
}

TEST(Hdrf, BeatsRandomHashOnReplication) {
  // HDRF's raison d'etre: fewer mirrors than hashing on skewed graphs.
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto scored = hdrf()->partition(g, weights, 1);
  const auto random = RandomHashPartitioner{}.partition(g, weights, 1);
  EXPECT_LT(compute_partition_metrics(g, scored, weights).replication_factor,
            compute_partition_metrics(g, random, weights).replication_factor);
}

TEST(Hdrf, BalanceTermKeepsLoadsTight) {
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  const auto a = hdrf()->partition(g, weights, 1);
  const auto metrics = compute_partition_metrics(g, a, weights);
  EXPECT_LT(metrics.weighted_imbalance, 1.10);
}

TEST(Hdrf, CapabilityWeightsShiftLoad) {
  const auto g = sample_graph();
  const std::vector<double> weights = {1.0, 3.5};
  const auto a = hdrf()->partition(g, weights, 1);
  const auto counts = a.machine_edge_counts();
  const double share1 =
      static_cast<double>(counts[1]) / static_cast<double>(g.num_edges());
  EXPECT_NEAR(share1, 3.5 / 4.5, 0.08);
}

TEST(Hdrf, LambdaZeroMaximisesLocality) {
  // Without the balance term, replication drops further (and balance is no
  // longer guaranteed) — the classic HDRF trade-off knob.
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  HdrfOptions locality_only;
  locality_only.lambda = 0.0;
  HdrfOptions balanced;
  balanced.lambda = 4.0;
  const auto a_loc = hdrf(locality_only)->partition(g, weights, 1);
  const auto a_bal = hdrf(balanced)->partition(g, weights, 1);
  EXPECT_LE(compute_partition_metrics(g, a_loc, weights).replication_factor,
            compute_partition_metrics(g, a_bal, weights).replication_factor + 1e-9);
}

TEST(Hdrf, DeterministicAndRegistered) {
  const auto g = sample_graph();
  const auto a = hdrf()->partition(g, uniform_weights(3), 5);
  const auto b = hdrf()->partition(g, uniform_weights(3), 5);
  EXPECT_EQ(a.edge_to_machine, b.edge_to_machine);
  EXPECT_EQ(partitioner_from_string("hdrf"), PartitionerKind::kHdrf);
  EXPECT_EQ(make_partitioner(PartitionerKind::kHdrf)->name(), "hdrf");
}

TEST(Hdrf, RejectsTooManyMachines) {
  const auto g = sample_graph();
  EXPECT_THROW(hdrf()->partition(g, uniform_weights(65), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pglb
