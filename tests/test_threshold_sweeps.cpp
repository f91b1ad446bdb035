// Parameterised sweeps over the mixed-cut thresholds (Sec. II-C): the
// high-degree threshold is the Hybrid/Ginger design knob, so its behaviour
// across the whole range deserves explicit coverage.

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
  config.alpha = 2.0;
  config.seed = 121;
  return generate_powerlaw(config);
}

std::unique_ptr<Partitioner> hybrid(const HybridOptions& options) {
  PartitionerOptions all;
  all.hybrid = options;
  return make_partitioner(PartitionerKind::kHybrid, all);
}

class HybridThresholdSweep : public ::testing::TestWithParam<EdgeId> {};

TEST_P(HybridThresholdSweep, AllEdgesAssignedAtEveryThreshold) {
  const auto g = sample_graph();
  HybridOptions options;
  options.high_degree_threshold = GetParam();
  const auto a = hybrid(options)->partition(g, uniform_weights(4), 1);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
}

TEST_P(HybridThresholdSweep, GingerAgreesOnHighDegreePlacement) {
  // For edges whose target is high-degree, Hybrid and Ginger use the same
  // weighted source hash — their assignments must coincide on those edges.
  const auto g = sample_graph();
  HybridOptions h_options;
  h_options.high_degree_threshold = GetParam();
  GingerOptions g_options;
  g_options.high_degree_threshold = GetParam();

  const auto mixed = hybrid(h_options)->partition(g, uniform_weights(4), 1);
  const auto ginger = GingerPartitioner(g_options).partition(g, uniform_weights(4), 1);
  const auto in_degree = g.in_degrees();
  EdgeId index = 0;
  for (const Edge& e : g.edges()) {
    if (in_degree[e.dst] > GetParam()) {
      ASSERT_EQ(mixed.edge_to_machine[index], ginger.edge_to_machine[index])
          << "edge " << index;
    }
    ++index;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HybridThresholdSweep,
                         ::testing::Values(EdgeId{0}, EdgeId{1}, EdgeId{10}, EdgeId{100},
                                           EdgeId{100'000}));

TEST(HybridThreshold, ZeroThresholdIsPureVertexCut) {
  // Threshold 0: every vertex with any in-edge is "high-degree" -> edges
  // scatter by source, exactly Random-Hash-by-source behaviour.
  const auto g = sample_graph();
  HybridOptions options;
  options.high_degree_threshold = 0;
  const auto a = hybrid(options)->partition(g, uniform_weights(4), 1);
  // Same source => same machine.
  std::vector<MachineId> source_home(g.num_vertices(), kInvalidMachine);
  EdgeId index = 0;
  for (const Edge& e : g.edges()) {
    const MachineId m = a.edge_to_machine[index++];
    if (source_home[e.src] == kInvalidMachine) {
      source_home[e.src] = m;
    } else {
      ASSERT_EQ(source_home[e.src], m);
    }
  }
}

TEST(HybridThreshold, HugeThresholdIsPureEdgeCut) {
  // Threshold above every in-degree: all edges group at their target;
  // replication factor collapses toward the pure-edge-cut regime.
  const auto g = sample_graph();
  HybridOptions options;
  options.high_degree_threshold = 1'000'000;
  const auto weights = uniform_weights(4);
  const auto a = hybrid(options)->partition(g, weights, 1);
  std::vector<MachineId> target_home(g.num_vertices(), kInvalidMachine);
  EdgeId index = 0;
  for (const Edge& e : g.edges()) {
    const MachineId m = a.edge_to_machine[index++];
    if (target_home[e.dst] == kInvalidMachine) {
      target_home[e.dst] = m;
    } else {
      ASSERT_EQ(target_home[e.dst], m);
    }
  }
}

TEST(HybridThreshold, MixedCutReplicatesLessThanPureVertexCut) {
  // Moving from pure vertex cut (threshold 0) to a mixed cut reduces mirrors
  // on low-degree-heavy graphs — Sec. II-C's motivation.  Between moderate
  // thresholds the factor is nearly flat (two opposing effects), so only the
  // vertex-cut-vs-mixed-cut gap is asserted.
  const auto g = sample_graph();
  const auto weights = uniform_weights(4);
  auto rf_at = [&](EdgeId threshold) {
    HybridOptions options;
    options.high_degree_threshold = threshold;
    const auto a = hybrid(options)->partition(g, weights, 1);
    return compute_partition_metrics(g, a, weights).replication_factor;
  };
  const double pure_vertex_cut = rf_at(0);
  EXPECT_LT(rf_at(10), pure_vertex_cut * 0.95);
  EXPECT_LT(rf_at(100), pure_vertex_cut * 0.95);
}

}  // namespace
}  // namespace pglb
