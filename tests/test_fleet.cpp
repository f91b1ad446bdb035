// Fleet subsystem (docs/FLEET.md): the routing key (the planner's profile
// key), weighted rendezvous ranking, health-state bookkeeping on a
// virtual clock, and the two routing guarantees — routed plans byte-identical
// to a single backend's, and cache-affine placement beating random routing
// on aggregate hit rate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fleet/hashing.hpp"
#include "fleet/local_backend.hpp"
#include "fleet/router.hpp"
#include "service/planner.hpp"
#include "service/profile_key.hpp"
#include "service/protocol.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

PlannerOptions tiny_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;
  return options;
}

ServerOptions small_server() {
  ServerOptions options;
  options.threads = 2;
  options.queue_capacity = 64;
  return options;
}

/// Small deterministic mix: 3 cluster shapes x 2 apps, all with alphas inside
/// the Table II coverage.
PlanRequest mix_request(std::size_t combo, std::size_t sequence) {
  static const std::vector<std::vector<std::string>> kClusters = {
      {"m4.2xlarge", "c4.2xlarge"},
      {"c4.xlarge", "c4.4xlarge"},
      {"m4.2xlarge", "c4.2xlarge", "r3.2xlarge"},
  };
  static const std::vector<AppKind> kApps = {AppKind::kPageRank,
                                             AppKind::kColoring};
  PlanRequest request;
  request.id = "fleet-" + std::to_string(sequence);
  request.machines = kClusters[combo % kClusters.size()];
  request.app = kApps[(combo / kClusters.size()) % kApps.size()];
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

// --- routing key ------------------------------------------------------------

TEST(FleetHashing, RoutingKeyMatchesPlannerProfileKey) {
  // The router's key is the replica's cache key for every plan request:
  // the in-coverage mix, machines shuffled and duplicated, alphas given and
  // fitted, and the out-of-coverage sweep.  It must hold on a fresh planner
  // and on one that has served the sweep, since keys depend on the request
  // alone.
  std::vector<PlanRequest> requests = testing::out_of_coverage_sweep();
  for (std::size_t combo = 0; combo < 6; ++combo) {
    requests.push_back(mix_request(combo, combo));
    PlanRequest given = mix_request(combo, 100 + combo);
    given.alpha = 1.8 + 0.1 * static_cast<double>(combo);
    requests.push_back(given);
  }
  PlanRequest shuffled = mix_request(0, 99);
  shuffled.machines = {"c4.2xlarge", "m4.2xlarge", "c4.2xlarge"};
  EXPECT_EQ(routing_key(shuffled), routing_key(mix_request(0, 99)));
  requests.push_back(shuffled);

  Planner planner(tiny_options());
  const auto check_all = [&](const char* when) {
    for (const PlanRequest& request : requests) {
      const std::string key = routing_key(request);
      EXPECT_EQ(key, planner.profile_key(request)) << when << " " << request.id;
      const auto parsed = ProfileKey::parse(key);
      ASSERT_TRUE(parsed.has_value()) << key;
      EXPECT_EQ(parsed->encode(), key);
    }
  };
  check_all("fresh");
  for (const PlanRequest& request : requests) {
    ASSERT_TRUE(planner.plan(request).ok) << request.id;
  }
  check_all("after the sweep");
}

// --- rendezvous ranking -----------------------------------------------------

std::vector<std::string> fleet_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("b" + std::to_string(i));
  return names;
}

TEST(FleetHashing, RankBackendsIsAStablePermutation) {
  const auto names = fleet_names(5);
  const auto order = rank_backends("some|key|2.1", names);
  ASSERT_EQ(order.size(), names.size());
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), names.size());
  EXPECT_EQ(order, rank_backends("some|key|2.1", names));
  // A different key almost surely ranks differently; assert it does for this
  // fixed pair (both sides deterministic, so this cannot flake).
  EXPECT_NE(order, rank_backends("other|key|1.95", names));
}

TEST(FleetHashing, RemovingABackendOnlyMovesItsKeys) {
  const auto names = fleet_names(4);
  for (int k = 0; k < 200; ++k) {
    const std::string key = "key-" + std::to_string(k) + "|pagerank|2.1";
    const auto order = rank_backends(key, names);
    // Drop the winner; everyone else's relative order must be untouched
    // (scores are independent per backend), so the old runner-up wins.
    std::vector<std::string> reduced = names;
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(order[0]));
    const auto reduced_order = rank_backends(key, reduced);
    const std::string& new_winner = reduced[reduced_order[0]];
    EXPECT_EQ(new_winner, names[order[1]]) << key;
  }
}

TEST(FleetHashing, WeightsSkewOwnershipProportionally) {
  const auto names = fleet_names(3);
  const std::vector<double> weights = {1.0, 1.0, 3.0};
  std::map<std::size_t, int> wins;
  const int kKeys = 3000;
  for (int k = 0; k < kKeys; ++k) {
    const auto order =
        rank_backends("key-" + std::to_string(k) + "|cc|1.95", names, weights);
    ++wins[order[0]];
  }
  // Expected shares 0.2 / 0.2 / 0.6; allow generous slack, the draw is fixed.
  EXPECT_GT(wins[2], kKeys / 2);
  EXPECT_LT(wins[0], kKeys * 3 / 10);
  EXPECT_LT(wins[1], kKeys * 3 / 10);
  EXPECT_GT(wins[0], kKeys / 10);
}

// --- health registry on a virtual clock -------------------------------------

/// Backend stub for registry bookkeeping tests: never actually submits.
class NullBackend : public Backend {
 public:
  explicit NullBackend(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string) override {
    std::promise<std::string> promise;
    promise.set_value("{}");
    return promise.get_future();
  }

 private:
  std::string name_;
};

TEST(FleetRegistryHealth, ExponentialBackoffAndRecoveryOnVirtualClock) {
  auto clock = std::make_shared<std::uint64_t>(1'000);
  FleetOptions options;
  options.base_backoff_ms = 100;
  options.max_backoff_ms = 400;
  options.clock_ms = [clock] { return *clock; };
  FleetRegistry fleet(options);
  fleet.add(std::make_shared<NullBackend>("b0"));

  EXPECT_TRUE(fleet.eligible(0));
  fleet.record_failure(0);
  EXPECT_EQ(fleet.status(0).state, BackendState::kDown);
  EXPECT_FALSE(fleet.eligible(0));
  *clock += 99;
  EXPECT_FALSE(fleet.eligible(0));
  *clock += 1;  // backoff window passed: probe-through allowed
  EXPECT_TRUE(fleet.eligible(0));
  EXPECT_TRUE(fleet.probe_due(0));

  fleet.record_failure(0);  // second consecutive failure: window doubles
  EXPECT_FALSE(fleet.eligible(0));
  *clock += 199;
  EXPECT_FALSE(fleet.eligible(0));
  *clock += 1;
  EXPECT_TRUE(fleet.eligible(0));

  fleet.record_failure(0);
  fleet.record_failure(0);
  fleet.record_failure(0);  // backoff is capped at max_backoff_ms
  *clock += 400;
  EXPECT_TRUE(fleet.eligible(0));

  fleet.record_success(0);
  EXPECT_EQ(fleet.status(0).state, BackendState::kUp);
  EXPECT_EQ(fleet.status(0).consecutive_failures, 0u);
  EXPECT_TRUE(fleet.eligible(0));
}

TEST(FleetRegistryHealth, DeferParksWithoutChangingState) {
  auto clock = std::make_shared<std::uint64_t>(0);
  FleetOptions options;
  options.clock_ms = [clock] { return *clock; };
  FleetRegistry fleet(options);
  fleet.add(std::make_shared<NullBackend>("b0"));

  fleet.defer(0, 250);  // typed "overloaded" hint: parked but still up
  EXPECT_EQ(fleet.status(0).state, BackendState::kUp);
  EXPECT_FALSE(fleet.eligible(0));
  *clock += 250;
  EXPECT_TRUE(fleet.eligible(0));
}

TEST(FleetRegistryHealth, DrainingExcludedFromRoutingButStillProbed) {
  FleetRegistry fleet;
  fleet.add(std::make_shared<NullBackend>("b0"));
  fleet.set_draining(0, true);
  EXPECT_EQ(fleet.status(0).state, BackendState::kDraining);
  EXPECT_FALSE(fleet.eligible(0));
  EXPECT_TRUE(fleet.probe_due(0));
  fleet.record_success(0);  // probe success keeps it draining (sticky)
  EXPECT_EQ(fleet.status(0).state, BackendState::kDraining);
  fleet.set_draining(0, false);
  EXPECT_EQ(fleet.status(0).state, BackendState::kUp);
  EXPECT_TRUE(fleet.eligible(0));
}

TEST(FleetRegistryHealth, StatusJsonIsDeterministic) {
  FleetRegistry fleet;
  fleet.add(std::make_shared<NullBackend>("b0"), 2.0);
  fleet.record_failure(0);
  EXPECT_EQ(fleet.status_json(),
            "[{\"name\":\"b0\",\"state\":\"down\",\"weight\":2,"
            "\"successes\":0,\"failures\":1,\"consecutive_failures\":1,"
            "\"inflight\":0,\"queue_depth\":0,"
            "\"degraded\":false,\"floor_ms\":0}]");
}

// --- straggler detection (docs/CHAOS.md) ------------------------------------

TEST(FleetRegistryStragglers, DegradeDecaysWeightAndRecoveryRestoresIt) {
  FleetOptions options;
  options.straggler_min_samples = 4;
  FleetRegistry fleet(options);
  fleet.add(std::make_shared<NullBackend>("b0"));
  fleet.add(std::make_shared<NullBackend>("b1"));
  fleet.add(std::make_shared<NullBackend>("b2"));

  // A chronically slow replica on a degraded link: answers everything (so it
  // never goes down) at 10x its peers' latency.
  bool flipped = false;
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(fleet.record_latency(0, 10.0));
    EXPECT_FALSE(fleet.record_latency(1, 10.0));
    flipped = fleet.record_latency(2, 100.0) || flipped;
  }
  EXPECT_TRUE(flipped);  // record_latency reported the degrade transition once
  EXPECT_TRUE(fleet.status(2).degraded);
  EXPECT_FALSE(fleet.status(0).degraded);
  EXPECT_EQ(fleet.status(2).state, BackendState::kUp);  // degraded != down
  EXPECT_TRUE(fleet.eligible(2));

  // The decay is applied at membership() snapshot time, so rendezvous ranking
  // sees it while the configured weight itself is untouched.
  const FleetMembership degraded = fleet.membership();
  EXPECT_DOUBLE_EQ(degraded.weights[0], 1.0);
  EXPECT_DOUBLE_EQ(degraded.weights[2], 0.25);
  EXPECT_NE(fleet.status_json().find("\"degraded\":true"), std::string::npos);

  // The link heals: the floor sinks back under the recovery threshold and the
  // full weight comes back.
  for (int i = 0; i < 64 && fleet.status(2).degraded; ++i) {
    fleet.record_latency(0, 10.0);
    fleet.record_latency(1, 10.0);
    fleet.record_latency(2, 10.0);
  }
  EXPECT_FALSE(fleet.status(2).degraded);
  EXPECT_DOUBLE_EQ(fleet.membership().weights[2], 1.0);
}

TEST(FleetRegistryStragglers, IsolatedSlowAnswersDoNotDegrade) {
  FleetRegistry fleet;  // default options: judged over the last 8 samples
  fleet.add(std::make_shared<NullBackend>("b0"));
  fleet.add(std::make_shared<NullBackend>("b1"));
  for (int i = 0; i < 16; ++i) {
    fleet.record_latency(0, 0.3);
    fleet.record_latency(1, 0.3);
  }

  // Cache hits answer in 0.3 ms; every fourth request to b1 is a 40 ms
  // cache-miss plan.  Its link is as fast as b0's, so it keeps its weight.
  for (int i = 0; i < 64; ++i) {
    fleet.record_latency(0, 0.3);
    EXPECT_FALSE(fleet.record_latency(1, i % 4 == 0 ? 40.0 : 0.3)) << "sample " << i;
  }
  EXPECT_FALSE(fleet.status(1).degraded);
  EXPECT_DOUBLE_EQ(fleet.status(1).floor_ms, 0.3);

  // A 25 ms link slows every answer: degraded once a full window is slow.
  bool flipped = false;
  for (int i = 0; i < 8; ++i) {
    fleet.record_latency(0, 0.3);
    flipped = fleet.record_latency(1, 25.3) || flipped;
  }
  EXPECT_TRUE(flipped);
  EXPECT_TRUE(fleet.status(1).degraded);
  EXPECT_DOUBLE_EQ(fleet.membership().weights[1], 0.25);
}

TEST(FleetRegistryStragglers, JudgmentsWaitForSamplesAndRespectHysteresis) {
  FleetOptions options;
  options.straggler_min_samples = 8;
  FleetRegistry fleet(options);
  fleet.add(std::make_shared<NullBackend>("b0"));
  fleet.add(std::make_shared<NullBackend>("b1"));
  fleet.add(std::make_shared<NullBackend>("b2"));

  // Seven samples each: under the floor, no judgment no matter the ratio.
  for (int i = 0; i < 7; ++i) {
    fleet.record_latency(0, 10.0);
    fleet.record_latency(1, 10.0);
    EXPECT_FALSE(fleet.record_latency(2, 1000.0));
  }
  EXPECT_FALSE(fleet.status(2).degraded);
  fleet.record_latency(0, 10.0);
  fleet.record_latency(1, 10.0);
  EXPECT_TRUE(fleet.record_latency(2, 1000.0));  // the 8th sample may judge

  // Hysteresis: a backend sitting at 3x the peer median — between the 2x
  // recovery and 4x degrade thresholds — is left alone in BOTH directions.
  FleetOptions steady_options;
  steady_options.straggler_min_samples = 4;
  FleetRegistry steady(steady_options);
  steady.add(std::make_shared<NullBackend>("s0"));
  steady.add(std::make_shared<NullBackend>("s1"));
  steady.add(std::make_shared<NullBackend>("s2"));
  for (int i = 0; i < 16; ++i) {
    steady.record_latency(0, 10.0);
    steady.record_latency(1, 10.0);
    EXPECT_FALSE(steady.record_latency(2, 30.0));
  }
  EXPECT_FALSE(steady.status(2).degraded);
  EXPECT_DOUBLE_EQ(steady.membership().weights[2], 1.0);
}

// --- routing guarantees -----------------------------------------------------

TEST(FleetRouter, RoutedPlanBytesMatchSingleBackend) {
  // Reference: one solo replica answers everything.
  LocalBackend solo("solo", tiny_options(), small_server());
  // Fleet: three independent replicas behind the router.
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, nullptr);
  for (int k = 0; k < 3; ++k) {
    router.add_backend(std::make_shared<LocalBackend>(
        "b" + std::to_string(k), tiny_options(), small_server()));
  }

  for (std::size_t i = 0; i < 12; ++i) {
    const std::string line = serialize_request(mix_request(i % 6, i));
    const std::string reference = solo.submit(line).get();
    const std::string routed = router.route(line);
    EXPECT_EQ(routed, reference) << "request " << i;
  }
}

/// A replica slot that can be restarted in place: the router keeps routing
/// to the same name while the LocalBackend behind it is swapped for a fresh
/// one with an empty cache and a new proxy suite.
class RestartableBackend : public Backend {
 public:
  explicit RestartableBackend(std::string name) : name_(std::move(name)) { restart(); }
  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string line) override {
    std::shared_ptr<LocalBackend> current;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current = current_;
    }
    return current->submit(std::move(line));
  }
  void restart() {
    auto fresh = std::make_shared<LocalBackend>(name_, tiny_options(), small_server());
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = std::move(fresh);
  }

 private:
  std::string name_;
  std::mutex mutex_;
  std::shared_ptr<LocalBackend> current_;
};

TEST(FleetRouter, OutOfCoverageBytesSurviveAReplicaRestart) {
  // Reference: one solo replica answers the sweep in reverse order.
  const std::vector<PlanRequest> sweep = testing::out_of_coverage_sweep();
  LocalBackend solo("solo", tiny_options(), small_server());
  std::map<std::string, std::string> reference;
  for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
    reference[it->id] = solo.submit(serialize_request(*it)).get();
  }

  // Fleet: two replicas; one restarts halfway, then the whole sweep runs
  // again, so later answers come from a replica with another history.
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, nullptr);
  auto first = std::make_shared<RestartableBackend>("b0");
  router.add_backend(first);
  router.add_backend(std::make_shared<RestartableBackend>("b1"));
  for (std::size_t i = 0; i < sweep.size() + sweep.size() / 2; ++i) {
    if (i == sweep.size() / 2) first->restart();
    const PlanRequest& request = sweep[i % sweep.size()];
    EXPECT_EQ(router.route(serialize_request(request)), reference[request.id])
        << request.id;
  }
}

TEST(FleetRouter, AffinityBeatsRandomRoutingOnCacheHits) {
  constexpr std::size_t kDistinct = 6;
  constexpr std::size_t kRequests = 24;

  const auto hit_stats = [](std::vector<std::shared_ptr<LocalBackend>>& fleet) {
    std::uint64_t hits = 0, misses = 0;
    for (const auto& backend : fleet) {
      hits += backend->metrics().counter("profile_cache_hits");
      misses += backend->metrics().counter("profile_cache_misses");
    }
    return std::pair<std::uint64_t, std::uint64_t>{hits, misses};
  };

  // Affine fleet: every request for a key lands on the same replica.
  std::vector<std::shared_ptr<LocalBackend>> affine;
  {
    RouterOptions options;
    options.probe_interval_ms = 0;
    Router router(options, nullptr);
    for (int k = 0; k < 3; ++k) {
      affine.push_back(std::make_shared<LocalBackend>(
          "b" + std::to_string(k), tiny_options(), small_server()));
      router.add_backend(affine.back());
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
      const std::string response =
          router.route(serialize_request(mix_request(i % kDistinct, i)));
      EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
    }
  }

  // Key-oblivious baseline: the same mix spread across an identical fleet
  // with a rotation that sends each key to every replica over the run (plain
  // i % 3 would accidentally be affine here, since the key period 6 is a
  // multiple of the fleet size), so every replica re-profiles every key.
  std::vector<std::shared_ptr<LocalBackend>> random;
  for (int k = 0; k < 3; ++k) {
    random.push_back(std::make_shared<LocalBackend>(
        "r" + std::to_string(k), tiny_options(), small_server()));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::string response =
        random[(i + i / kDistinct) % random.size()]
            ->submit(serialize_request(mix_request(i % kDistinct, i)))
            .get();
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  }

  const auto [affine_hits, affine_misses] = hit_stats(affine);
  const auto [random_hits, random_misses] = hit_stats(random);
  ASSERT_GT(affine_hits + affine_misses, 0u);
  ASSERT_GT(random_hits + random_misses, 0u);
  const double affine_rate = static_cast<double>(affine_hits) /
                             static_cast<double>(affine_hits + affine_misses);
  const double random_rate = static_cast<double>(random_hits) /
                             static_cast<double>(random_hits + random_misses);
  // Affinity: each of the 6 keys misses exactly once fleet-wide.  Round
  // robin: each key misses once per replica it visits.
  EXPECT_EQ(affine_misses, kDistinct);
  EXPECT_GT(affine_rate, random_rate);
}

TEST(FleetRouter, ProbeRecoversADownBackend) {
  auto clock = std::make_shared<std::uint64_t>(0);
  RouterOptions options;
  options.probe_interval_ms = 0;  // probes driven manually
  options.fleet.base_backoff_ms = 100;
  options.fleet.clock_ms = [clock] { return *clock; };
  Router router(options, nullptr);
  router.add_backend(
      std::make_shared<LocalBackend>("b0", tiny_options(), small_server()));

  router.fleet().record_failure(0);
  EXPECT_FALSE(router.fleet().eligible(0));
  EXPECT_FALSE(router.fleet().probe_due(0));  // still inside the backoff
  EXPECT_EQ(router.probe_once(), 0u);
  EXPECT_EQ(router.fleet().status(0).state, BackendState::kDown);

  *clock += 100;  // window over: the probe goes through and succeeds
  EXPECT_TRUE(router.fleet().probe_due(0));
  EXPECT_EQ(router.probe_once(), 1u);
  EXPECT_EQ(router.fleet().status(0).state, BackendState::kUp);
  EXPECT_TRUE(router.fleet().eligible(0));
}

}  // namespace
}  // namespace pglb
