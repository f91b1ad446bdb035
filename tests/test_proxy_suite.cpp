#include "core/proxy_suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/time_database.hpp"
#include "obs/registry.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;  // tiny proxies: tests stay fast

TEST(ProxySuite, GeneratesThreeTableTwoProxies) {
  ProxySuite suite(kScale);
  ASSERT_EQ(suite.proxies().size(), 3u);
  EXPECT_DOUBLE_EQ(suite.proxies()[0].alpha, 1.95);
  EXPECT_DOUBLE_EQ(suite.proxies()[1].alpha, 2.1);
  EXPECT_DOUBLE_EQ(suite.proxies()[2].alpha, 2.3);
  for (const auto& proxy : suite.proxies()) {
    EXPECT_GT(proxy.graph.num_edges(), 0u);
    EXPECT_EQ(proxy.stats.num_vertices, proxy.graph.num_vertices());
  }
}

TEST(ProxySuite, DensityFollowsAlphaOrdering) {
  ProxySuite suite(kScale);
  EXPECT_GT(suite.proxies()[0].graph.num_edges(), suite.proxies()[1].graph.num_edges());
  EXPECT_GT(suite.proxies()[1].graph.num_edges(), suite.proxies()[2].graph.num_edges());
}

TEST(ProxySuite, NearestSelectsByAlpha) {
  ProxySuite suite(kScale);
  EXPECT_DOUBLE_EQ(suite.nearest(1.9).alpha, 1.95);
  EXPECT_DOUBLE_EQ(suite.nearest(2.11).alpha, 2.1);
  EXPECT_DOUBLE_EQ(suite.nearest(5.0).alpha, 2.3);
}

TEST(ProxySuite, StockAlphaGivesTheStockProxy) {
  ProxySuite suite(kScale);
  const std::uint64_t generated = global_registry().counter("proxy.generated");
  const double alpha = proxy_alpha_for(2.05);  // inside the covered band
  EXPECT_EQ(alpha, 2.1);
  EXPECT_EQ(&suite.proxy(alpha), &suite.proxies()[1]);
  EXPECT_EQ(global_registry().counter("proxy.generated"), generated);
}

TEST(ProxySuite, LatticeProxyIsGeneratedOnceAtItsLatticeAlpha) {
  ProxySuite suite(kScale);
  const std::uint64_t generated = global_registry().counter("proxy.generated");
  const double alpha = proxy_alpha_for(3.2);  // far from {1.95, 2.1, 2.3}
  EXPECT_EQ(alpha, 3.25);
  const ProxySuite::Proxy& extra = suite.proxy(alpha);
  EXPECT_EQ(extra.alpha, 3.25);
  EXPECT_GT(extra.graph.num_edges(), 0u);
  EXPECT_EQ(suite.proxies().size(), 3u);  // proxies() stays the stock set
  // Every alpha that snaps to 3.25 is served by the same proxy object.
  EXPECT_EQ(&suite.proxy(proxy_alpha_for(3.3)), &extra);
  EXPECT_EQ(global_registry().counter("proxy.generated"), generated + 1);

  // The seed depends on the suite seed and the lattice point only, so a
  // second suite, asked for other alphas first, builds the same graph.
  ProxySuite other(kScale);
  (void)other.proxy(proxy_alpha_for(1.5));
  const ProxySuite::Proxy& again = other.proxy(alpha);
  EXPECT_EQ(again.graph.num_edges(), extra.graph.num_edges());
  EXPECT_TRUE(std::ranges::equal(again.graph.edges(), extra.graph.edges()));
}

TEST(ProxySuite, RejectsAlphasOffTheLattice) {
  ProxySuite suite(kScale);
  EXPECT_THROW((void)suite.proxy(2.2), std::invalid_argument);   // covered by 2.1
  EXPECT_THROW((void)suite.proxy(3.1), std::invalid_argument);   // between points
  EXPECT_THROW((void)suite.proxy(2.5), std::invalid_argument);   // covered by 2.3
  EXPECT_THROW((void)suite.proxy(64.25), std::invalid_argument);  // above the top
}

TEST(ProxySuite, ConcurrentFirstUsesShareOneLatticeProxy) {
  ProxySuite suite(kScale);
  const std::uint64_t generated = global_registry().counter("proxy.generated");
  std::vector<const ProxySuite::Proxy*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = &suite.proxy(4.0); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const ProxySuite::Proxy* proxy : seen) EXPECT_EQ(proxy, seen[0]);
  EXPECT_EQ(global_registry().counter("proxy.generated"), generated + 1);
}

TEST(ProxySuite, TracksGenerationTime) {
  ProxySuite suite(kScale);
  EXPECT_GT(suite.generation_seconds(), 0.0);
}

TEST(ProxySuite, RejectsBadScale) {
  EXPECT_THROW(ProxySuite(0.0), std::invalid_argument);
  EXPECT_THROW(ProxySuite(1.5), std::invalid_argument);
}

TEST(ProxySuite, DeterministicPerSeed) {
  ProxySuite a(kScale, 5);
  ProxySuite b(kScale, 5);
  EXPECT_EQ(a.proxies()[0].graph.num_edges(), b.proxies()[0].graph.num_edges());
  ProxySuite c(kScale, 6);
  EXPECT_NE(a.proxies()[0].graph.num_edges(), c.proxies()[0].graph.num_edges());
}

// --- proxy_alpha_for: the pure alpha -> proxy map ----------------------------

TEST(ProxyAlphaFor, StockWithinTheMarginElseTheLattice) {
  EXPECT_EQ(proxy_alpha_for(1.95), 1.95);
  EXPECT_EQ(proxy_alpha_for(2.0), 1.95);
  EXPECT_EQ(proxy_alpha_for(2.05), 2.1);
  EXPECT_EQ(proxy_alpha_for(2.45), 2.3);
  EXPECT_EQ(proxy_alpha_for(2.5), 2.3);
  // Outside the +-0.25 margin: the nearest multiple of 0.25 that no stock
  // proxy covers, whatever was asked before.
  EXPECT_EQ(proxy_alpha_for(3.0), 3.0);
  EXPECT_EQ(proxy_alpha_for(3.2), 3.25);
  EXPECT_EQ(proxy_alpha_for(2.8), 2.75);
  EXPECT_EQ(proxy_alpha_for(7.5), 7.5);
  EXPECT_EQ(proxy_alpha_for(1.5), 1.5);
  // 2.6 rounds to 2.5 and 1.65 to 1.75, both inside a stock margin, so they
  // step on outward.
  EXPECT_EQ(proxy_alpha_for(2.6), 2.75);
  EXPECT_EQ(proxy_alpha_for(1.65), 1.5);
  // Clamped to the lattice ends.
  EXPECT_EQ(proxy_alpha_for(1.2), 1.25);
  EXPECT_EQ(proxy_alpha_for(1.01), 1.25);
  EXPECT_EQ(proxy_alpha_for(1e308), ProxySuite::kMaxLatticeAlpha);
  EXPECT_THROW((void)proxy_alpha_for(std::nan("")), std::invalid_argument);
}

TEST(ProxyAlphaFor, EveryAnswerIsAFixedPointThatPrintsExactly) {
  // The map must be idempotent (a key re-resolved from its own proxy alpha,
  // as peer warming does, lands on the same proxy) and canonical_alpha() must
  // print each answer exactly, or keys would not round-trip.
  for (double alpha = 1.0; alpha < 70.0; alpha += 0.01) {
    const double proxy_alpha = proxy_alpha_for(alpha);
    ASSERT_EQ(proxy_alpha_for(proxy_alpha), proxy_alpha) << alpha;
    ASSERT_EQ(std::strtod(canonical_alpha(proxy_alpha).c_str(), nullptr), proxy_alpha)
        << alpha;
    if (alpha >= ProxySuite::kMinLatticeAlpha && alpha <= ProxySuite::kMaxLatticeAlpha) {
      ASSERT_LE(std::abs(proxy_alpha - alpha), ProxySuite::kCoverageMargin) << alpha;
    }
  }
}

}  // namespace
}  // namespace pglb
