// The reproduction's contract, end to end: every row of EXPERIMENTS.md's
// verdict table as an executable assertion at tiny scale.  These tests run
// the real pipeline (generation -> profiling -> partitioning -> execution),
// not the analytic model directly (test_calibration.cpp covers that layer).

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/profiler.hpp"
#include "gen/corpus.hpp"
#include "gen/watts_strogatz.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

constexpr AppKind kPaperApps[] = {AppKind::kPageRank, AppKind::kColoring,
                                  AppKind::kConnectedComponents,
                                  AppKind::kTriangleCount};

struct PipelineFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    cluster = new Cluster(pglb::testing::case2_cluster());
    suite = new ProxySuite(kScale, 100);
    pool = new TimeDatabase;
    profile_cluster(*pool, *cluster, *suite, kPaperApps);
  }
  static void TearDownTestSuite() {
    delete pool;
    delete suite;
    delete cluster;
    pool = nullptr;
    suite = nullptr;
    cluster = nullptr;
  }

  static Cluster* cluster;
  static ProxySuite* suite;
  static TimeDatabase* pool;
};

Cluster* PipelineFixture::cluster = nullptr;
ProxySuite* PipelineFixture::suite = nullptr;
TimeDatabase* PipelineFixture::pool = nullptr;

TEST_F(PipelineFixture, Claim1_ProxiesPredictCapabilityWithinTenPercent) {
  // Sec. V-A: <10% CCR error on power-law inputs, for every app.
  for (const AppKind app : kPaperApps) {
    const auto graph = make_corpus_graph(corpus_entry("citation"), kScale);
    const auto prepared = prepare_graph_for(app, graph);
    const auto oracle_times = profile_groups_on_graph(*cluster, app, graph, kScale);
    const double oracle_ccr = oracle_times[0] / oracle_times[1];
    const double proxy_ccr = pool->ccr_for(*cluster, app, 2.1)[1];
    EXPECT_LT(relative_error(proxy_ccr, oracle_ccr), 0.10) << to_string(app);
    (void)prepared;
  }
}

TEST_F(PipelineFixture, Claim2_ThreadCountingMissesBadly) {
  // The 1:5 thread ratio vs profiled ~1:3.2: > 25% error for every app.
  const double thread_ratio =
      static_cast<double>(cluster->machine(1).compute_threads) /
      cluster->machine(0).compute_threads;
  for (const AppKind app : kPaperApps) {
    const double proxy_ccr = pool->ccr_for(*cluster, app, 2.1)[1];
    EXPECT_GT(relative_error(thread_ratio, proxy_ccr), 0.25) << to_string(app);
  }
}

TEST_F(PipelineFixture, Claim3_CcrBeatsUniformForEveryPaperApp) {
  const ProxyCcrEstimator ccr(*pool);
  const UniformEstimator uniform;
  FlowOptions options;
  options.scale = kScale;
  const auto graph = make_corpus_graph(corpus_entry("wiki"), kScale);
  for (const AppKind app : kPaperApps) {
    const auto guided = run_flow(graph, app, *cluster, ccr, options);
    const auto plain = run_flow(graph, app, *cluster, uniform, options);
    EXPECT_LT(guided.app.report.makespan_seconds, plain.app.report.makespan_seconds)
        << to_string(app);
    EXPECT_LE(guided.app.report.total_joules, plain.app.report.total_joules * 1.02)
        << to_string(app);
    // Correctness invariant: identical results under either policy.
    EXPECT_DOUBLE_EQ(guided.app.digest, plain.app.digest) << to_string(app);
  }
}

TEST_F(PipelineFixture, Claim4_AsyncColoringBenefitsLeast) {
  // Sec. V-B1: Coloring's async execution caps the balancing win.
  const ProxyCcrEstimator ccr(*pool);
  const UniformEstimator uniform;
  FlowOptions options;
  options.scale = kScale;
  const auto graph = make_corpus_graph(corpus_entry("citation"), kScale);

  auto speedup_of = [&](AppKind app) {
    const auto guided = run_flow(graph, app, *cluster, ccr, options);
    const auto plain = run_flow(graph, app, *cluster, uniform, options);
    return plain.app.report.makespan_seconds / guided.app.report.makespan_seconds;
  };
  // Coloring still gains (async removes barriers but the total-work bound
  // remains), just not dramatically more than the sync propagation apps.
  EXPECT_LT(speedup_of(AppKind::kColoring), speedup_of(AppKind::kPageRank) * 1.10);
}

TEST_F(PipelineFixture, Claim5_ProxyCoverageLimitedToPowerLaws) {
  // Sec. III-A2's caveat as a negative control: on a near-uniform-degree
  // small-world graph, TC's power-law-proxy CCR misses the oracle by more
  // than it does on the power-law corpus.
  WattsStrogatzConfig config;
  config.num_vertices = 15'000;
  config.neighbors = 5;
  config.seed = 7;
  const auto small_world = generate_watts_strogatz(config);
  const auto powerlaw = make_corpus_graph(corpus_entry("citation"), kScale);

  // Coloring's capability gap is the most skew-driven of the propagation
  // apps, so the distribution mismatch shows up cleanly.
  const AppKind app = AppKind::kColoring;
  const double proxy_ccr = pool->ccr_for(*cluster, app, 2.1)[1];

  const auto sw_times = profile_groups_on_graph(*cluster, app, small_world, kScale);
  const auto pl_times = profile_groups_on_graph(*cluster, app, powerlaw, kScale);
  const double sw_error = relative_error(proxy_ccr, sw_times[0] / sw_times[1]);
  const double pl_error = relative_error(proxy_ccr, pl_times[0] / pl_times[1]);
  EXPECT_GT(sw_error, pl_error);
}

TEST_F(PipelineFixture, Claim6_DeratingWidensCcrExceptForTc) {
  // Sec. V-B3 end to end: re-profile the Case 3 cluster and compare.
  const auto case3 = pglb::testing::case3_cluster();
  ProxySuite suite3(kScale, 100);
  TimeDatabase pool3;
  profile_cluster(pool3, case3, suite3, kPaperApps);
  for (const AppKind app : {AppKind::kPageRank, AppKind::kColoring,
                            AppKind::kConnectedComponents}) {
    EXPECT_GT(pool3.ccr_for(case3, app, 2.1)[1], pool->ccr_for(*cluster, app, 2.1)[1] * 1.25)
        << to_string(app);
  }
  // TC tracks the clock only: its CCR grows far less.
  EXPECT_LT(pool3.ccr_for(case3, AppKind::kTriangleCount, 2.1)[1],
            pool->ccr_for(*cluster, AppKind::kTriangleCount, 2.1)[1] * 1.6);
}

TEST(WattsStrogatz, GeneratorBasics) {
  WattsStrogatzConfig config;
  config.num_vertices = 1000;
  config.neighbors = 4;
  const auto g = generate_watts_strogatz(config);
  EXPECT_EQ(g.num_edges(), 4000u);
  const auto stats = compute_stats(g);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 4.0);
  EXPECT_LT(stats.degree_skew, 2.0);  // near-uniform degrees: tiny skew
  for (const Edge& e : g.edges()) EXPECT_NE(e.src, e.dst);

  config.neighbors = 0;
  EXPECT_THROW(generate_watts_strogatz(config), std::invalid_argument);
  config.neighbors = 4;
  config.rewire_probability = 2.0;
  EXPECT_THROW(generate_watts_strogatz(config), std::invalid_argument);
}

}  // namespace
}  // namespace pglb
