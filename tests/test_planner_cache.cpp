// Profile cache (LRU + single-flight) and the Planner built on top of it:
// hit/miss accounting, eviction, key stability, and the byte-identical
// cached-vs-fresh plan guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "service/metrics.hpp"
#include "service/planner.hpp"
#include "service/profile_cache.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

ProfileCache::EntryPtr entry_with_alpha(double alpha) {
  auto entry = std::make_shared<ProfileEntry>();
  entry->proxy_alpha = alpha;
  return entry;
}

TEST(ProfileCache, ZeroCapacityRejected) {
  EXPECT_THROW(ProfileCache(0), std::invalid_argument);
}

TEST(ProfileCache, HitAndMissAccounting) {
  ProfileCache cache(4);
  int computes = 0;
  const auto compute = [&] { ++computes; return entry_with_alpha(2.0); };

  EXPECT_DOUBLE_EQ(cache.get("k1", compute)->proxy_alpha, 2.0);
  EXPECT_EQ(computes, 1);
  cache.get("k1", compute);
  cache.get("k1", compute);
  EXPECT_EQ(computes, 1);  // served from cache, compute not re-run

  const ProfileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

TEST(ProfileCache, LruEviction) {
  ProfileCache cache(2);
  int computes = 0;
  const auto compute = [&] { ++computes; return entry_with_alpha(2.0); };

  cache.get("a", compute);
  cache.get("b", compute);
  cache.get("a", compute);  // refresh a: LRU order is now [a, b]
  cache.get("c", compute);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);

  computes = 0;
  cache.get("a", compute);
  cache.get("c", compute);
  EXPECT_EQ(computes, 0);  // both survived
  cache.get("b", compute);
  EXPECT_EQ(computes, 1);  // b was the evicted one
}

TEST(ProfileCache, FailedComputeIsRetried) {
  ProfileCache cache(4);
  std::atomic<int> attempts{0};
  const auto failing = [&]() -> ProfileCache::EntryPtr {
    ++attempts;
    throw std::runtime_error("profiling exploded");
  };
  EXPECT_THROW(cache.get("k", failing), std::runtime_error);
  EXPECT_THROW(cache.get("k", failing), std::runtime_error);
  EXPECT_EQ(attempts.load(), 2);  // failure was not cached

  const auto ok = [&] { return entry_with_alpha(2.3); };
  EXPECT_DOUBLE_EQ(cache.get("k", ok)->proxy_alpha, 2.3);
}

TEST(ProfileCache, SingleFlightUnderContention) {
  ProfileCache cache(4);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<ProfileCache::EntryPtr> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.get("shared", [&] {
        ++computes;
        return entry_with_alpha(1.95);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1);  // exactly one profiling run
  for (const auto& result : results) {
    EXPECT_EQ(result.get(), results[0].get());  // everyone shares the entry
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ProfileCache, ClearKeepsCounters) {
  ProfileCache cache(4);
  cache.get("k", [] { return entry_with_alpha(2.0); });
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.get("k", [] { return entry_with_alpha(2.0); });
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProfileCache, InvalidateEvictsBumpsGenerationAndCounts) {
  ProfileCache cache(4);
  int computes = 0;
  const auto compute = [&] { ++computes; return entry_with_alpha(2.0); };

  cache.get("k", compute);
  EXPECT_EQ(cache.generation("k"), 0u);
  EXPECT_TRUE(cache.invalidate("k"));
  ProfileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.evictions, 0u);  // explicit, not capacity pressure
  EXPECT_EQ(cache.generation("k"), 1u);

  // The next get is a genuine miss that recomputes.
  cache.get("k", compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Invalidating an absent key is a no-op on every counter.
  EXPECT_FALSE(cache.invalidate("never_inserted"));
  stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(cache.generation("never_inserted"), 0u);
}

TEST(ProfileCache, GenerationsReportNonZeroKeySorted) {
  ProfileCache cache(4);
  const auto compute = [] { return entry_with_alpha(2.0); };
  cache.get("b", compute);
  cache.get("a", compute);
  cache.get("c", compute);
  cache.invalidate("c");
  cache.invalidate("b");
  cache.get("b", compute);
  cache.invalidate("b");

  const auto generations = cache.generations();
  ASSERT_EQ(generations.size(), 2u);  // "a" was never invalidated
  EXPECT_EQ(generations[0].first, "b");
  EXPECT_EQ(generations[0].second, 2u);
  EXPECT_EQ(generations[1].first, "c");
  EXPECT_EQ(generations[1].second, 1u);
}

// --- Planner over the cache ------------------------------------------------

PlannerOptions tiny_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;  // keep profiling misses fast in tests
  return options;
}

PlanRequest basic_request() {
  PlanRequest request;
  request.id = "t1";
  request.app = AppKind::kPageRank;
  request.machines = {"m4.2xlarge", "c4.2xlarge"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

TEST(PlannerCache, RepeatRequestsHit) {
  Planner planner(tiny_options());
  const PlanRequest request = basic_request();
  EXPECT_TRUE(planner.plan(request).ok);
  EXPECT_TRUE(planner.plan(request).ok);
  EXPECT_TRUE(planner.plan(request).ok);
  const ProfileCacheStats stats = planner.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(PlannerCache, CachedPlanByteIdenticalToFresh) {
  const PlanRequest request = basic_request();

  Planner warm(tiny_options());
  const std::string first = serialize_response(warm.plan(request));   // miss
  const std::string cached = serialize_response(warm.plan(request));  // hit
  EXPECT_EQ(cached, first);

  // A brand-new planner (empty cache) profiles from scratch and must still
  // produce the exact same bytes.
  Planner fresh(tiny_options());
  EXPECT_EQ(serialize_response(fresh.plan(request)), first);

  EXPECT_EQ(warm.cache_stats().hits, 1u);
  EXPECT_EQ(fresh.cache_stats().hits, 0u);
}

TEST(PlannerCache, KeyIgnoresClusterComposition) {
  // The paper's observation: CCR profiles depend on machine *classes*, not on
  // how many of each the cluster has.  [A,B], [B,A] and [A,A,B] share a key.
  Planner planner(tiny_options());
  PlanRequest request = basic_request();
  const std::string key = planner.profile_key(request);

  PlanRequest reordered = request;
  reordered.machines = {"c4.2xlarge", "m4.2xlarge"};
  EXPECT_EQ(planner.profile_key(reordered), key);

  PlanRequest duplicated = request;
  duplicated.machines = {"m4.2xlarge", "m4.2xlarge", "c4.2xlarge"};
  EXPECT_EQ(planner.profile_key(duplicated), key);

  planner.plan(request);
  planner.plan(reordered);
  planner.plan(duplicated);
  EXPECT_EQ(planner.cache_stats().misses, 1u);
  EXPECT_EQ(planner.cache_stats().hits, 2u);
}

TEST(PlannerCache, KeySeparatesAppAndCluster) {
  Planner planner(tiny_options());
  const PlanRequest request = basic_request();

  PlanRequest other_app = request;
  other_app.app = AppKind::kColoring;
  EXPECT_NE(planner.profile_key(other_app), planner.profile_key(request));

  PlanRequest other_cluster = request;
  other_cluster.machines = {"xeon_server_s", "xeon_server_l"};
  EXPECT_NE(planner.profile_key(other_cluster), planner.profile_key(request));
}

TEST(PlannerCache, NearbyAlphasShareAProxy) {
  // Graphs whose fitted alphas resolve to the same proxy share a profile —
  // that is what pushes real-workload hit rates past 90%.
  Planner planner(tiny_options());
  PlanRequest a = basic_request();
  a.alpha = 2.08;
  PlanRequest b = basic_request();
  b.alpha = 2.12;
  EXPECT_EQ(planner.profile_key(a), planner.profile_key(b));
  planner.plan(a);
  planner.plan(b);
  EXPECT_EQ(planner.cache_stats().misses, 1u);
  EXPECT_EQ(planner.cache_stats().hits, 1u);
}

TEST(PlannerCache, ErrorsDoNotPolluteCache) {
  Planner planner(tiny_options());
  PlanRequest bad = basic_request();
  bad.machines = {"not_a_machine"};
  const PlanResponse response = planner.plan(bad);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "t1");
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(planner.cache_stats().misses, 0u);
  EXPECT_EQ(planner.cache_stats().size, 0u);
}

TEST(PlannerCache, InvalidateProfileForcesAByteIdenticalReprofile) {
  // The delta planner's drift path: invalidate the pinned key, re-plan, and
  // the fresh profile must reproduce the exact response bytes (determinism),
  // with the extra miss and the invalidation both observable.
  Planner planner(tiny_options());
  const PlanRequest request = basic_request();
  const std::string first = serialize_response(planner.plan(request));
  const std::string key = planner.profile_key(request);

  EXPECT_TRUE(planner.invalidate_profile(key));
  EXPECT_FALSE(planner.invalidate_profile(key));  // already evicted

  EXPECT_EQ(serialize_response(planner.plan(request)), first);
  const ProfileCacheStats stats = planner.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.invalidations, 1u);

  const auto generations = planner.cache_generations();
  ASSERT_EQ(generations.size(), 1u);
  EXPECT_EQ(generations[0].first, key);
  EXPECT_EQ(generations[0].second, 1u);
}

TEST(PlannerCache, PlanFieldsAreConsistent) {
  Planner planner(tiny_options());
  const PlanResponse response = planner.plan(basic_request());
  ASSERT_TRUE(response.ok);
  ASSERT_EQ(response.ccr.size(), 2u);
  ASSERT_EQ(response.weights.size(), 2u);
  // Eq. 1: slowest machine pinned at 1, everything else at least as capable.
  EXPECT_DOUBLE_EQ(*std::min_element(response.ccr.begin(), response.ccr.end()), 1.0);
  double weight_sum = 0.0;
  for (const double w : response.weights) weight_sum += w;
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  EXPECT_GT(response.replication_factor, 1.0);
  EXPECT_GT(response.makespan_seconds, 0.0);
  EXPECT_GT(response.energy_joules, 0.0);
  EXPECT_GT(response.cost_usd, 0.0);
  EXPECT_EQ(response.partitioner, "hybrid");
}

TEST(PlannerCache, ColdPlanRunsTheKernelOnceAndPricesEachClass) {
  // A profile miss runs the app kernel on the proxy once and prices that
  // work for every machine class: engine.app_runs counts kernel runs,
  // profiler.cells and the service's profile_runs count priced cells.
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  PlanRequest request = basic_request();
  request.app = AppKind::kColoring;
  request.machines = {"m4.2xlarge", "c4.2xlarge", "r3.2xlarge", "c4.xlarge"};
  const Registry& registry = global_registry();
  const std::uint64_t app_runs = registry.counter("engine.app_runs");
  const std::uint64_t cells = registry.counter("profiler.cells");
  ASSERT_TRUE(planner.plan(request).ok);
  EXPECT_EQ(registry.counter("engine.app_runs") - app_runs, 1u);
  EXPECT_EQ(registry.counter("profiler.cells") - cells, 4u);
  EXPECT_EQ(metrics.counter("profile_runs"), 4u);

  ASSERT_TRUE(planner.plan(request).ok);  // a hit runs and prices nothing
  EXPECT_EQ(registry.counter("engine.app_runs") - app_runs, 1u);
  EXPECT_EQ(registry.counter("profiler.cells") - cells, 4u);
}

// --- out-of-coverage alphas: one pure proxy identity -----------------------

TEST(PlannerCache, OutOfCoveragePlansDoNotDependOnHistory) {
  // Each request is planned on the proxy its own alpha names, so two
  // planners answering the sweep in opposite orders agree byte for byte,
  // and so does a planner that sees each request alone.
  const std::vector<PlanRequest> sweep = testing::out_of_coverage_sweep();
  Planner forward(tiny_options());
  Planner backward(tiny_options());
  std::map<std::string, std::string> forward_bytes;
  for (const PlanRequest& request : sweep) {
    const PlanResponse response = forward.plan(request);
    ASSERT_TRUE(response.ok) << request.id << ": " << response.error;
    EXPECT_TRUE(response.degraded.empty()) << request.id;
    forward_bytes[request.id] = serialize_response(response);
  }
  for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
    EXPECT_EQ(serialize_response(backward.plan(*it)), forward_bytes[it->id]) << it->id;
  }
  for (const PlanRequest& request : sweep) {
    Planner alone(tiny_options());
    EXPECT_EQ(serialize_response(alone.plan(request)), forward_bytes[request.id])
        << request.id;
  }
}

TEST(PlannerCache, ProfileKeyIsPureAndNamesTheLattice) {
  // profile_key() is const and generates nothing; it names the proxy the
  // plan is computed on, and reports it as proxy_alpha.
  const Planner planner(tiny_options());
  const std::uint64_t generated = global_registry().counter("proxy.generated");
  PlanRequest request = basic_request();
  request.alpha = 2.8;
  EXPECT_EQ(planner.profile_key(request), "c4.2xlarge+m4.2xlarge|pagerank|2.75");
  request.alpha.reset();
  request.edges = 0;  // fits to the sparse clamp, alpha 6
  EXPECT_EQ(planner.profile_key(request), "c4.2xlarge+m4.2xlarge|pagerank|6");
  EXPECT_EQ(global_registry().counter("proxy.generated"), generated);

  Planner serving(tiny_options());
  const PlanResponse response = serving.plan(request);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.fitted_alpha, 6.0);
  EXPECT_EQ(response.proxy_alpha, 6.0);
}

TEST(PlannerCache, ConcurrentPlansOnOneLatticeAlphaGenerateItOnce) {
  // Eight different profile keys on one lattice alpha miss at once: the
  // lattice proxy is generated exactly once, inside one of the misses, and
  // every answer equals the serial one.
  std::vector<PlanRequest> requests;
  const std::vector<std::vector<std::string>> clusters = {
      {"m4.2xlarge", "c4.2xlarge"}, {"c4.xlarge", "c4.4xlarge"}};
  for (const AppKind app : {AppKind::kPageRank, AppKind::kColoring,
                            AppKind::kConnectedComponents, AppKind::kSssp}) {
    for (const auto& machines : clusters) {
      PlanRequest& request = requests.emplace_back(basic_request());
      request.id = "lattice-" + std::to_string(requests.size());
      request.app = app;
      request.machines = machines;
      request.alpha = 4.1;  // snaps to the lattice point 4
    }
  }
  std::vector<std::string> serial;
  {
    Planner planner(tiny_options());
    for (const PlanRequest& request : requests) {
      serial.push_back(serialize_response(planner.plan(request)));
    }
  }

  Planner planner(tiny_options());
  const std::uint64_t generated = global_registry().counter("proxy.generated");
  std::vector<std::string> concurrent(requests.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(requests.size())) std::this_thread::yield();
      concurrent[i] = serialize_response(planner.plan(requests[i]));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(global_registry().counter("proxy.generated"), generated + 1);
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(planner.cache_stats().misses, requests.size());
}

}  // namespace
}  // namespace pglb
