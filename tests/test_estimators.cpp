#include "core/estimators.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/ccr.hpp"
#include "gen/corpus.hpp"
#include "test_helpers.hpp"
#include "util/math.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

EdgeList corpus_graph(const char* name) {
  return make_corpus_graph(corpus_entry(name), kScale);
}

void expect_normalized(std::span<const double> weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (const double w : weights) EXPECT_GT(w, 0.0);
}

TEST(UniformEstimator, EqualShares) {
  const auto cluster = testing::case1_cluster();
  const auto g = corpus_graph("amazon");
  const auto w = UniformEstimator{}.weights(cluster, AppKind::kPageRank, g, compute_stats(g));
  expect_normalized(w);
  EXPECT_DOUBLE_EQ(w[0], 0.5);
}

TEST(ThreadCountEstimator, PriorWorkShares) {
  // Case 2 cluster: 2 vs 10 compute threads -> shares 1/6 vs 5/6.
  const auto cluster = testing::case2_cluster();
  const auto g = corpus_graph("amazon");
  const auto w =
      ThreadCountEstimator{}.weights(cluster, AppKind::kPageRank, g, compute_stats(g));
  expect_normalized(w);
  EXPECT_NEAR(w[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(w[1], 5.0 / 6.0, 1e-12);
}

TEST(ThreadCountEstimator, BlindToSameThreadHeterogeneity) {
  // Case 1: m4.2xlarge vs c4.2xlarge — prior work sees a homogeneous cluster.
  const auto cluster = testing::case1_cluster();
  const auto g = corpus_graph("amazon");
  const auto w =
      ThreadCountEstimator{}.weights(cluster, AppKind::kPageRank, g, compute_stats(g));
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

class EstimatorAccuracy : public ::testing::TestWithParam<AppKind> {};

TEST_P(EstimatorAccuracy, ProxyCcrTracksOracleWithinTenPercent) {
  // The headline claim (Sec. V-A): proxy-profiled CCRs match real-graph CCRs
  // with < 10% error, while thread counting misses badly.
  const auto cluster = testing::case1_cluster();
  ProxySuite suite(kScale);
  const AppKind apps[] = {GetParam()};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);

  const auto g = corpus_graph("wiki");
  const auto stats = compute_stats(g);

  const ProxyCcrEstimator proxy(pool);
  const OracleEstimator oracle(kScale);
  const auto w_proxy = proxy.weights(cluster, GetParam(), g, stats);
  const auto w_oracle = oracle.weights(cluster, GetParam(), g, stats);
  expect_normalized(w_proxy);
  expect_normalized(w_oracle);

  // Compare as CCR ratios (fast/slow share).
  const double proxy_ratio = w_proxy[1] / w_proxy[0];
  const double oracle_ratio = w_oracle[1] / w_oracle[0];
  EXPECT_LT(relative_error(proxy_ratio, oracle_ratio), 0.10) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllApps, EstimatorAccuracy,
                         ::testing::Values(AppKind::kPageRank, AppKind::kColoring,
                                           AppKind::kConnectedComponents,
                                           AppKind::kTriangleCount));

TEST(Estimators, ThreadCountWorseThanProxyOnCase2) {
  const auto cluster = testing::case2_cluster();
  ProxySuite suite(kScale);
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  profile_cluster(pool, cluster, suite, apps);

  const auto g = corpus_graph("citation");
  const auto stats = compute_stats(g);

  const auto w_oracle = OracleEstimator(kScale).weights(cluster, AppKind::kPageRank, g, stats);
  const auto w_proxy = ProxyCcrEstimator(pool).weights(cluster, AppKind::kPageRank, g, stats);
  const auto w_threads =
      ThreadCountEstimator{}.weights(cluster, AppKind::kPageRank, g, stats);

  const double oracle_ratio = w_oracle[1] / w_oracle[0];
  const double proxy_error = relative_error(w_proxy[1] / w_proxy[0], oracle_ratio);
  const double thread_error = relative_error(w_threads[1] / w_threads[0], oracle_ratio);
  EXPECT_LT(proxy_error, 0.10);
  EXPECT_GT(thread_error, 0.25);  // 5.0 vs ~3.5: the prior-work overload
  EXPECT_GT(thread_error, 2.0 * proxy_error);
}

TEST(Estimators, NamesAreStable) {
  EXPECT_EQ(UniformEstimator{}.name(), "uniform");
  EXPECT_EQ(ThreadCountEstimator{}.name(), "thread_count");
  const TimeDatabase pool;
  EXPECT_EQ(ProxyCcrEstimator{pool}.name(), "proxy_ccr");
  EXPECT_EQ(OracleEstimator{1.0}.name(), "oracle");
}

}  // namespace
}  // namespace pglb
