#include "core/flow.hpp"

#include <gtest/gtest.h>

#include "gen/corpus.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

struct FlowFixture : public ::testing::Test {
  FlowFixture()
      : cluster(testing::case2_cluster()),
        graph(make_corpus_graph(corpus_entry("wiki"), kScale)),
        suite(kScale) {
    const AppKind apps[] = {AppKind::kPageRank, AppKind::kConnectedComponents};
    profile_cluster(pool, cluster, suite, apps);
    options.scale = kScale;
  }

  Cluster cluster;
  EdgeList graph;
  ProxySuite suite;
  TimeDatabase pool;
  FlowOptions options;
};

TEST_F(FlowFixture, EndToEndProducesSaneResult) {
  const ProxyCcrEstimator estimator(pool);
  const auto result = run_flow(graph, AppKind::kPageRank, cluster, estimator, options);

  EXPECT_EQ(result.stats.num_edges, graph.num_edges());
  EXPECT_GT(result.fitted_alpha, 1.5);
  EXPECT_LT(result.fitted_alpha, 3.5);
  ASSERT_EQ(result.weights.size(), 2u);
  EXPECT_GT(result.weights[1], result.weights[0]);  // big machine gets more
  EXPECT_GE(result.replication_factor, 1.0);
  EXPECT_GT(result.app.report.makespan_seconds, 0.0);
  EXPECT_GT(result.app.report.total_joules, 0.0);
}

TEST_F(FlowFixture, CcrFlowBeatsUniformOnHeterogeneousCluster) {
  // The paper's core performance claim, end to end.
  const ProxyCcrEstimator ccr(pool);
  const UniformEstimator uniform;
  const auto with_ccr = run_flow(graph, AppKind::kPageRank, cluster, ccr, options);
  const auto with_uniform = run_flow(graph, AppKind::kPageRank, cluster, uniform, options);
  EXPECT_LT(with_ccr.app.report.makespan_seconds,
            with_uniform.app.report.makespan_seconds);
  // Energy drops too (less idle waiting on the big machine).
  EXPECT_LT(with_ccr.app.report.total_joules, with_uniform.app.report.total_joules);
}

TEST_F(FlowFixture, CcrFlowBeatsThreadCountOnCase2OnAverage) {
  // The paper's Case 2 claim (17.7% better than prior work) is an average
  // across apps and graphs; individual pairs can sit within the heuristic
  // noise, so assert the aggregate.
  const ProxyCcrEstimator ccr(pool);
  const ThreadCountEstimator threads;
  const auto citation = make_corpus_graph(corpus_entry("citation"), kScale);

  std::vector<double> ratios;
  for (const AppKind app : {AppKind::kPageRank, AppKind::kConnectedComponents}) {
    for (const EdgeList* g : {const_cast<const EdgeList*>(&graph), &citation}) {
      for (const PartitionerKind kind :
           {PartitionerKind::kRandomHash, PartitionerKind::kHybrid}) {
        FlowOptions o = options;
        o.partitioner = kind;
        const auto with_ccr = run_flow(*g, app, cluster, ccr, o);
        const auto with_threads = run_flow(*g, app, cluster, threads, o);
        ratios.push_back(with_threads.app.report.makespan_seconds /
                         with_ccr.app.report.makespan_seconds);
      }
    }
  }
  EXPECT_GT(geomean(ratios), 1.02);  // CCR ahead in aggregate
  // And never catastrophically behind on any single configuration.
  for (const double r : ratios) EXPECT_GT(r, 0.9);
}

TEST_F(FlowFixture, ResultDigestIsPartitionerInvariant) {
  const ProxyCcrEstimator estimator(pool);
  FlowOptions a = options;
  a.partitioner = PartitionerKind::kRandomHash;
  FlowOptions b = options;
  b.partitioner = PartitionerKind::kGinger;
  const auto ra = run_flow(graph, AppKind::kConnectedComponents, cluster, estimator, a);
  const auto rb = run_flow(graph, AppKind::kConnectedComponents, cluster, estimator, b);
  EXPECT_DOUBLE_EQ(ra.app.digest, rb.app.digest);  // same component count
}

TEST_F(FlowFixture, GridRejectedOnNonSquareCluster) {
  const ProxyCcrEstimator estimator(pool);
  FlowOptions bad = options;
  bad.partitioner = PartitionerKind::kGrid;
  EXPECT_THROW(run_flow(graph, AppKind::kPageRank, cluster, estimator, bad),
               std::invalid_argument);
}

TEST_F(FlowFixture, TriangleCountFlowCanonicalizesInternally) {
  // TC flows must run even though the raw graph is directed with duplicates.
  const AppKind apps[] = {AppKind::kTriangleCount};
  TimeDatabase tc_pool;
  profile_cluster(tc_pool, cluster, suite, apps);
  const ProxyCcrEstimator estimator(tc_pool);
  const auto result = run_flow(graph, AppKind::kTriangleCount, cluster, estimator, options);
  EXPECT_LE(result.stats.num_edges, graph.num_edges());
  EXPECT_GE(result.app.digest, 0.0);
}

}  // namespace
}  // namespace pglb
