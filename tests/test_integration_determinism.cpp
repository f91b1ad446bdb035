// Whole-pipeline determinism: DESIGN.md promises that a full run — generator
// through profiler through partitioner through engine — is bit-reproducible
// for a fixed seed.  These tests run the complete stack twice and compare
// exact outputs.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

struct PipelineRun {
  double makespan = 0.0;
  double joules = 0.0;
  double digest = 0.0;
  double rf = 0.0;
  std::vector<double> weights;
  std::vector<double> ccr;
};

PipelineRun run_pipeline(std::uint64_t seed) {
  const auto cluster = testing::case2_cluster();
  ProxySuite suite(kScale, seed + 100);
  const AppKind apps[] = {AppKind::kConnectedComponents};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);
  const ProxyCcrEstimator estimator(pool);

  const auto graph = make_corpus_graph(corpus_entry("citation"), kScale, seed);
  FlowOptions options;
  options.scale = kScale;
  options.seed = seed;
  options.partitioner = PartitionerKind::kGinger;
  const auto result =
      run_flow(graph, AppKind::kConnectedComponents, cluster, estimator, options);

  PipelineRun run;
  run.makespan = result.app.report.makespan_seconds;
  run.joules = result.app.report.total_joules;
  run.digest = result.app.digest;
  run.rf = result.replication_factor;
  run.weights = result.weights;
  run.ccr = pool.ccr_for(cluster, AppKind::kConnectedComponents, 2.1);
  return run;
}

TEST(IntegrationDeterminism, IdenticalSeedsBitIdenticalResults) {
  const auto a = run_pipeline(7);
  const auto b = run_pipeline(7);
  EXPECT_EQ(a.makespan, b.makespan);  // exact, not approximate
  EXPECT_EQ(a.joules, b.joules);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rf, b.rf);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.ccr, b.ccr);
}

TEST(IntegrationDeterminism, DifferentSeedsDifferentGraphsSameConclusions) {
  const auto a = run_pipeline(7);
  const auto b = run_pipeline(8);
  // Different corpus instantiation -> different numbers...
  EXPECT_NE(a.makespan, b.makespan);
  // ...but the profiled CCR conclusion is a property of the machines, not
  // the seed: both runs must hand the fast machine the larger share.
  EXPECT_GT(a.weights[1], a.weights[0]);
  EXPECT_GT(b.weights[1], b.weights[0]);
  EXPECT_NEAR(a.ccr[1], b.ccr[1], a.ccr[1] * 0.05);
}

TEST(IntegrationDeterminism, ScaleChangesMagnitudeNotStructure) {
  // Virtual times re-inflate with work_scale: two scales of the same corpus
  // entry must agree on CCR (Sec. II-A: size is a trivial factor) and on
  // which policy wins.
  const auto cluster = testing::case2_cluster();
  std::vector<double> ccrs;
  for (const double scale : {1.0 / 512.0, 1.0 / 128.0}) {
    ProxySuite suite(scale, 100);
    const AppKind apps[] = {AppKind::kPageRank};
    TimeDatabase pool;
    profile_cluster(pool, cluster, suite, apps);
    ccrs.push_back(pool.ccr_for(cluster, AppKind::kPageRank, 2.1)[1]);
  }
  EXPECT_NEAR(ccrs[0], ccrs[1], ccrs[0] * 0.03);
}

}  // namespace
}  // namespace pglb
