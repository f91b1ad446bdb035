// Property-based sweeps over ALL partitioners: invariants that must hold for
// every algorithm, seed, machine count and weight vector.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "gen/chung_lu.hpp"
#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "partition/metrics.hpp"
#include "partition/weights.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"

namespace pglb {
namespace {

struct Config {
  PartitionerKind kind;
  MachineId machines;
  std::uint64_t seed;
  bool skewed;  ///< 1:2:4:... capability weights instead of uniform ones
  std::uint64_t digest;  ///< digest_of() the assignment under weights_of()
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << to_string(c.kind) << "/m" << c.machines << "/s" << c.seed;
  if (c.skewed) *os << "/skewed";
}

std::vector<double> weights_of(const Config& c) {
  if (!c.skewed) return uniform_weights(c.machines);
  std::vector<double> weights(c.machines);
  for (MachineId m = 0; m < c.machines; ++m) weights[m] = static_cast<double>(1u << m);
  return weights;
}

/// Order-sensitive 64-bit digest of an assignment.
std::uint64_t digest_of(const PartitionAssignment& a) {
  std::uint64_t digest = hash_u64(a.edge_to_machine.size());
  for (const MachineId m : a.edge_to_machine) digest = hash_combine(digest, m);
  return digest;
}

class PartitionerProperties : public ::testing::TestWithParam<Config> {
 protected:
  static EdgeList graph() {
    PowerLawConfig config;
    config.num_vertices = 8000;
    config.alpha = 2.05;
    config.seed = 3;
    return generate_powerlaw(config);
  }
};

TEST_P(PartitionerProperties, EveryEdgeAssignedInRange) {
  const Config& c = GetParam();
  const auto g = graph();
  const auto a = make_partitioner(c.kind)->partition(g, weights_of(c), c.seed);
  ASSERT_EQ(a.edge_to_machine.size(), g.num_edges());
  ASSERT_EQ(a.num_machines, c.machines);
  for (const MachineId m : a.edge_to_machine) ASSERT_LT(m, c.machines);
}

TEST_P(PartitionerProperties, EdgeCountsSumToTotal) {
  const Config& c = GetParam();
  const auto g = graph();
  const auto a = make_partitioner(c.kind)->partition(g, weights_of(c), c.seed);
  const auto counts = a.machine_edge_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), EdgeId{0}), g.num_edges());
}

TEST_P(PartitionerProperties, DeterministicAcrossCalls) {
  const Config& c = GetParam();
  const auto g = graph();
  const auto p = make_partitioner(c.kind);
  const auto a = p->partition(g, weights_of(c), c.seed);
  const auto b = p->partition(g, weights_of(c), c.seed);
  EXPECT_EQ(a.edge_to_machine, b.edge_to_machine);
}

TEST_P(PartitionerProperties, AssignmentMatchesPinnedDigest) {
  // The reference assignment of every kind.  The digests were captured from
  // the separate from-scratch loops hybrid, HDRF, oblivious and grid had
  // before their partition() became a one-batch IncrementalState replay.
  const Config& c = GetParam();
  const auto g = graph();
  const std::uint64_t digest =
      digest_of(make_partitioner(c.kind)->partition(g, weights_of(c), c.seed));
  EXPECT_EQ(digest, c.digest) << "actual digest 0x" << std::hex << digest;
}

TEST_P(PartitionerProperties, RaisingAWeightNeverShrinksItsShare) {
  // Monotonicity of heterogeneity awareness: doubling one machine's weight
  // must not decrease the share of edges it receives.
  const Config& c = GetParam();
  const auto g = graph();
  const auto p = make_partitioner(c.kind);

  auto share_of_first = [&](std::span<const double> weights) {
    const auto a = p->partition(g, weights, c.seed);
    const auto counts = a.machine_edge_counts();
    return static_cast<double>(counts[0]) / static_cast<double>(g.num_edges());
  };

  std::vector<double> base(c.machines, 1.0);
  const double before = share_of_first(base);
  base[0] = 2.5;
  const double after = share_of_first(base);
  EXPECT_GE(after, before * 0.98);  // allow heuristic jitter, forbid reversals
  if (c.machines > 1) {
    EXPECT_GT(after, 1.0 / static_cast<double>(c.machines));
  }
}

TEST_P(PartitionerProperties, ReplicationFactorWithinBounds) {
  const Config& c = GetParam();
  const auto g = graph();
  const auto weights = weights_of(c);
  const auto a = make_partitioner(c.kind)->partition(g, weights, c.seed);
  const auto metrics = compute_partition_metrics(g, a, weights);
  EXPECT_GE(metrics.replication_factor, 1.0);
  EXPECT_LE(metrics.replication_factor, static_cast<double>(c.machines));
}

// Every extended kind x {1,4,9,16} machines (all square, so grid applies) x
// seeds {1,42} under uniform weights, plus one skewed-weight row per
// streaming kind.
const Config kSweep[] = {
    {PartitionerKind::kRandomHash, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kRandomHash, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kRandomHash, 4, 1, false, 0x282e383171c9632eull},
    {PartitionerKind::kRandomHash, 4, 42, false, 0x2b2212460522a3cbull},
    {PartitionerKind::kRandomHash, 9, 1, false, 0xef7ba2029f37bc2dull},
    {PartitionerKind::kRandomHash, 9, 42, false, 0x79bcce4c7507d1ffull},
    {PartitionerKind::kRandomHash, 16, 1, false, 0xfedfb2213881ecf4ull},
    {PartitionerKind::kRandomHash, 16, 42, false, 0xe2e58062d9071cdeull},
    {PartitionerKind::kOblivious, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kOblivious, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kOblivious, 4, 1, false, 0xc02eb8519ad2cef9ull},
    {PartitionerKind::kOblivious, 4, 42, false, 0xf6f0447885949841ull},
    {PartitionerKind::kOblivious, 9, 1, false, 0x517e9fa832100fc4ull},
    {PartitionerKind::kOblivious, 9, 42, false, 0x25f02fb6092bd98cull},
    {PartitionerKind::kOblivious, 16, 1, false, 0xde8b1b0e6f5951f8ull},
    {PartitionerKind::kOblivious, 16, 42, false, 0x5752c58f2eb59a90ull},
    {PartitionerKind::kGrid, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kGrid, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kGrid, 4, 1, false, 0xce61f1d2d1522c4full},
    {PartitionerKind::kGrid, 4, 42, false, 0xa620bd8ebdc7fb79ull},
    {PartitionerKind::kGrid, 9, 1, false, 0x513998fb2a04071bull},
    {PartitionerKind::kGrid, 9, 42, false, 0x225295767316723dull},
    {PartitionerKind::kGrid, 16, 1, false, 0xef54f0d633a950c6ull},
    {PartitionerKind::kGrid, 16, 42, false, 0x945570c9fbe453b1ull},
    {PartitionerKind::kHybrid, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kHybrid, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kHybrid, 4, 1, false, 0xfed83ec735cd1df7ull},
    {PartitionerKind::kHybrid, 4, 42, false, 0xf845bc794fbfd253ull},
    {PartitionerKind::kHybrid, 9, 1, false, 0x07b46405d36b3c84ull},
    {PartitionerKind::kHybrid, 9, 42, false, 0x9c72fa3501f5a52cull},
    {PartitionerKind::kHybrid, 16, 1, false, 0xeceb470f35578c48ull},
    {PartitionerKind::kHybrid, 16, 42, false, 0xb8c62f5b0c67bab8ull},
    {PartitionerKind::kGinger, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kGinger, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kGinger, 4, 1, false, 0x148888bd660ec48cull},
    {PartitionerKind::kGinger, 4, 42, false, 0x6b27faac699b8bdaull},
    {PartitionerKind::kGinger, 9, 1, false, 0x14a7413212ece184ull},
    {PartitionerKind::kGinger, 9, 42, false, 0x1d30e2c86b808376ull},
    {PartitionerKind::kGinger, 16, 1, false, 0x4ece5d329b70b646ull},
    {PartitionerKind::kGinger, 16, 42, false, 0x13aee51ab2aec54eull},
    {PartitionerKind::kChunking, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kChunking, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kChunking, 4, 1, false, 0x98a9784daf5c3203ull},
    {PartitionerKind::kChunking, 4, 42, false, 0x98a9784daf5c3203ull},
    {PartitionerKind::kChunking, 9, 1, false, 0xfc730ddf149474f3ull},
    {PartitionerKind::kChunking, 9, 42, false, 0xfc730ddf149474f3ull},
    {PartitionerKind::kChunking, 16, 1, false, 0x6ecaaf8d92c428b3ull},
    {PartitionerKind::kChunking, 16, 42, false, 0x6ecaaf8d92c428b3ull},
    {PartitionerKind::kHdrf, 1, 1, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kHdrf, 1, 42, false, 0xffb7148d50720ceaull},
    {PartitionerKind::kHdrf, 4, 1, false, 0xd1f7d2dcb0e1060bull},
    {PartitionerKind::kHdrf, 4, 42, false, 0x887deda862e5f3f9ull},
    {PartitionerKind::kHdrf, 9, 1, false, 0x0cd29b91260ace80ull},
    {PartitionerKind::kHdrf, 9, 42, false, 0xdae44c674bcde429ull},
    {PartitionerKind::kHdrf, 16, 1, false, 0xac3bf6c2915bc074ull},
    {PartitionerKind::kHdrf, 16, 42, false, 0x602426e1134b1faaull},
    {PartitionerKind::kOblivious, 4, 42, true, 0x8893b898340f954full},
    {PartitionerKind::kGrid, 4, 42, true, 0x09fc8b50315fc587ull},
    {PartitionerKind::kHybrid, 4, 42, true, 0xd3e6959cb5746731ull},
    {PartitionerKind::kHdrf, 4, 42, true, 0xa2694c3f2c408534ull},
};

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionerProperties, ::testing::ValuesIn(kSweep));

TEST(PartitionerProperties, EmptyGraphYieldsEmptyAssignment) {
  const EdgeList empty(100);
  for (const PartitionerKind kind : extended_partitioner_kinds()) {
    const auto a = make_partitioner(kind)->partition(empty, uniform_weights(4), 1);
    EXPECT_TRUE(a.edge_to_machine.empty()) << to_string(kind);
  }
}

TEST(PartitionerProperties, MultigraphEdgesAllAssigned) {
  // Repeated edges and self-loops must not break any streaming pass.
  EdgeList g(4);
  for (int i = 0; i < 50; ++i) g.add(0, 1);
  g.add(2, 2);
  g.add(3, 2);
  for (const PartitionerKind kind : extended_partitioner_kinds()) {
    const auto a = make_partitioner(kind)->partition(g, uniform_weights(4), 1);
    EXPECT_EQ(a.edge_to_machine.size(), g.num_edges()) << to_string(kind);
  }
}

}  // namespace
}  // namespace pglb
