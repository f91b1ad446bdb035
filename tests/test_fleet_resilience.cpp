// Fleet router under fire (docs/FLEET.md, docs/ROBUSTNESS.md): failover on
// transport errors, typed-overloaded handling with retry-after parking,
// deadline synthesis, and — the headline — hedged-retry determinism under an
// injected stall: the routed plan is byte-identical to a single backend's
// even when the winning response came from the hedge.
//
// Runs under the `fault` ctest label (scripts/check_tsan.sh exercises it
// alongside the tsan suite).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/hashing.hpp"
#include "fleet/local_backend.hpp"
#include "fleet/router.hpp"
#include "obs/registry.hpp"
#include "service/planner.hpp"
#include "service/protocol.hpp"
#include "util/fault.hpp"

namespace pglb {
namespace {

/// Disarms the global fault registry even when an assertion bails out early
/// (same idiom as test_service_resilience.cpp).
struct FaultGuard {
  ~FaultGuard() { FaultRegistry::instance().clear(); }
};

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

PlanRequest plan_request(const std::string& id) {
  PlanRequest request;
  request.id = id;
  request.machines = {"m4.2xlarge", "c4.2xlarge"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

/// Transport failure on every submit — a dead replica.
class FailingBackend : public Backend {
 public:
  explicit FailingBackend(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string) override {
    std::promise<std::string> promise;
    promise.set_exception(std::make_exception_ptr(
        BackendError(name_, "injected transport failure")));
    return promise.get_future();
  }

 private:
  std::string name_;
};

/// Sheds every request with a canned typed "overloaded" response.
class OverloadedBackend : public Backend {
 public:
  OverloadedBackend(std::string name, std::uint64_t retry_after_ms)
      : name_(std::move(name)), retry_after_ms_(retry_after_ms) {}
  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string line) override {
    std::string id;
    try {
      id = parse_plan_request(line).id;
    } catch (const std::exception&) {
    }
    std::promise<std::string> promise;
    promise.set_value(serialize_overloaded(id, 3, retry_after_ms_));
    return promise.get_future();
  }

 private:
  std::string name_;
  std::uint64_t retry_after_ms_;
};

/// Accepts everything, answers nothing — a hung replica.
class SilentBackend : public Backend {
 public:
  explicit SilentBackend(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::future<std::string> submit(std::string) override {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace_back();
    return pending_.back().get_future();
  }

 private:
  std::string name_;
  std::mutex mutex_;
  std::vector<std::promise<std::string>> pending_;
};

/// First request (searching distinct lattice alphas, so every probe has its
/// own routing key) whose rendezvous winner is backend `want`.  The ranking
/// is deterministic, so the search always terminates quickly.
PlanRequest request_ranked_first_on(const std::vector<std::string>& names,
                                    const std::vector<double>& weights,
                                    std::size_t want) {
  for (int i = 0; i < 200; ++i) {
    PlanRequest request = plan_request("pick-" + std::to_string(i));
    request.alpha = 3.0 + 0.25 * i;  // one lattice point, and one key, each
    const auto order = rank_backends(routing_key(request), names, weights);
    if (order.front() == want) return request;
  }
  throw std::runtime_error("no request ranked first on the wanted backend");
}

TEST(FleetResilience, FailoverOnTransportErrorYieldsHealthyPlan) {
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  // Frozen virtual clock: the dead replicas' backoff windows never expire, so
  // the second request deterministically skips them regardless of how long
  // the first plan computation took.
  options.fleet.clock_ms = [] { return std::uint64_t{0}; };
  Router router(options, &metrics);
  router.add_backend(std::make_shared<FailingBackend>("dead0"));
  const std::size_t healthy = router.add_backend(
      std::make_shared<LocalBackend>("ok0", tiny_options(), small_server()));
  router.add_backend(std::make_shared<FailingBackend>("dead1"));

  // Craft a request that rendezvous-ranks a DEAD backend first, so failover
  // is guaranteed to be exercised (not just possible).
  const FleetMembership fleet = router.fleet().membership();
  const PlanRequest request =
      request_ranked_first_on(fleet.names, fleet.weights, 0);
  const auto order =
      rank_backends(routing_key(request), fleet.names, fleet.weights);
  std::uint64_t dead_before_ok = 0;
  for (const std::size_t index : order) {
    if (index == healthy) break;
    ++dead_before_ok;
  }
  ASSERT_GE(dead_before_ok, 1u);

  const std::string response_line = router.route(serialize_request(request));
  const PlanResponse response = parse_plan_response(response_line);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.status, PlanStatus::kOk);
  EXPECT_EQ(response.id, request.id);
  EXPECT_EQ(metrics.counter("router.backend_errors"), dead_before_ok);
  EXPECT_EQ(metrics.counter("router.failovers"), dead_before_ok);
  EXPECT_EQ(router.fleet().status(0).state, BackendState::kDown);

  // Dead replicas are now in backoff: the next request for the same key goes
  // straight to the healthy one — no repeated connection attempts.
  const std::string again = router.route(serialize_request(request));
  EXPECT_TRUE(parse_plan_response(again).ok);
  EXPECT_EQ(metrics.counter("router.backend_errors"), dead_before_ok);
  EXPECT_EQ(metrics.counter("fleet.ok0.routed"), 2u);
}

TEST(FleetResilience, AllBackendsFailedSynthesizesTypedError) {
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, &metrics);
  router.add_backend(std::make_shared<FailingBackend>("dead0"));
  router.add_backend(std::make_shared<FailingBackend>("dead1"));

  const PlanRequest request = plan_request("doomed");
  const PlanResponse response =
      parse_plan_response(router.route(serialize_request(request)));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, PlanStatus::kError);
  EXPECT_EQ(response.id, "doomed");
  EXPECT_EQ(metrics.counter("router.backend_errors"), 2u);
  EXPECT_EQ(metrics.counter("router.exhausted"), 1u);
}

TEST(FleetResilience, OverloadedResponseParksBackendForItsRetryAfterHint) {
  auto clock = std::make_shared<std::uint64_t>(0);
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  options.fleet.base_backoff_ms = 100;
  options.fleet.clock_ms = [clock] { return *clock; };
  Router router(options, &metrics);
  router.add_backend(std::make_shared<OverloadedBackend>("busy", 250));

  // The shed response itself is the answer (typed, truthful, retry hint) and
  // reaches the client byte-identical to the direct path.
  const PlanRequest request = plan_request("shed-1");
  const std::string response = router.route(serialize_request(request));
  EXPECT_EQ(response, serialize_overloaded("shed-1", 3, 250));
  EXPECT_EQ(metrics.counter("router.overloaded"), 1u);

  // The backend is parked (still "up") until its own retry_after horizon.
  EXPECT_EQ(router.fleet().status(0).state, BackendState::kUp);
  EXPECT_FALSE(router.fleet().eligible(0));

  // While parked, the fleet is unroutable: the router synthesizes its own
  // overloaded response with the base backoff as the hint.
  const std::string parked = router.route(serialize_request(plan_request("shed-2")));
  EXPECT_EQ(parked, serialize_overloaded("shed-2", 0, 100));
  EXPECT_EQ(metrics.counter("router.unroutable"), 1u);

  *clock += 250;  // horizon passed: eligible again
  EXPECT_TRUE(router.fleet().eligible(0));
  const std::string retried = router.route(serialize_request(plan_request("shed-3")));
  EXPECT_EQ(retried, serialize_overloaded("shed-3", 3, 250));
}

TEST(FleetResilience, OverloadedFailsOverToHealthyReplica) {
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, &metrics);
  router.add_backend(std::make_shared<OverloadedBackend>("busy", 250));
  router.add_backend(
      std::make_shared<LocalBackend>("ok0", tiny_options(), small_server()));

  const FleetMembership fleet = router.fleet().membership();
  const PlanRequest request =
      request_ranked_first_on(fleet.names, fleet.weights, 0);
  const PlanResponse response =
      parse_plan_response(router.route(serialize_request(request)));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.status, PlanStatus::kOk);
  EXPECT_EQ(metrics.counter("router.overloaded"), 1u);
  EXPECT_EQ(metrics.counter("router.failovers"), 1u);
}

TEST(FleetResilience, DeadlineExpirySynthesizesTypedTimeout) {
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, &metrics);
  router.add_backend(std::make_shared<SilentBackend>("hung"));

  PlanRequest request = plan_request("stuck");
  request.timeout_ms = 50;
  const PlanResponse response =
      parse_plan_response(router.route(serialize_request(request)));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, PlanStatus::kTimeout);
  EXPECT_EQ(response.id, "stuck");
  EXPECT_EQ(metrics.counter("router.deadline_expired"), 1u);
}

TEST(FleetResilience, DrainingFleetIsUnroutable) {
  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, &metrics);
  router.add_backend(
      std::make_shared<LocalBackend>("b0", tiny_options(), small_server()));
  router.fleet().set_draining(0, true);

  const PlanResponse response =
      parse_plan_response(router.route(serialize_request(plan_request("adm"))));
  EXPECT_EQ(response.status, PlanStatus::kOverloaded);
  EXPECT_EQ(metrics.counter("router.unroutable"), 1u);

  router.fleet().set_draining(0, false);
  EXPECT_TRUE(
      parse_plan_response(router.route(serialize_request(plan_request("adm2")))).ok);
}

// The ISSUE's headline resilience property: with one replica stalled by fault
// injection, the hedge fires, the OTHER replica answers, and the routed plan
// is byte-for-byte the plan a lone healthy backend produces.  Determinism is
// what makes hedging safe — both replicas would emit identical bytes, so the
// client cannot tell a hedged response from a first-attempt one.
TEST(FleetResilience, HedgedRetryIsByteDeterministicUnderInjectedStall) {
  const PlanRequest request = plan_request("hedge-1");

  // Reference bytes from a lone healthy backend, BEFORE any fault is armed.
  std::string reference;
  {
    LocalBackend solo("solo", tiny_options(), small_server());
    reference = solo.submit(serialize_request(request)).get();
    ASSERT_TRUE(parse_plan_response(reference).ok);
  }

  Registry metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  options.hedge_delay_ms = 50;
  Router router(options, &metrics);
  router.add_backend(
      std::make_shared<LocalBackend>("b0", tiny_options(), small_server()));
  router.add_backend(
      std::make_shared<LocalBackend>("b1", tiny_options(), small_server()));

  // Whichever replica gets the first attempt: its FIRST profiling cell (the
  // first profiler.cell hit process-wide since arming) stalls well past the
  // hedge delay, so the duplicate goes out and the other replica answers
  // first.  nth:1 guarantees the hedged replica's own cells run clean.
  FaultGuard guard;
  FaultRegistry::instance().configure("profiler.cell=stall:600@nth:1");

  const std::string routed = router.route(serialize_request(request));
  EXPECT_EQ(routed, reference);
  EXPECT_EQ(metrics.counter("router.hedges"), 1u);
  EXPECT_EQ(FaultRegistry::instance().injected_count("profiler.cell"), 1u);
  // Both replicas were contacted: the stalled first attempt and the hedge.
  EXPECT_EQ(metrics.counter("fleet.b0.routed") +
                metrics.counter("fleet.b1.routed"),
            2u);
}

}  // namespace
}  // namespace pglb
