// ReplicaFleet against real pglb_serve replicas (docs/FLEET.md): start,
// scale up, drain, rejoin, kill, restart, attach, and shutdown.  Every step
// is driven directly — apply() instead of the autoscale thread, the prober
// off — so each assertion follows from the step before it, never from
// wall-clock pressure or a probe window.

#include <gtest/gtest.h>

#include <signal.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/hashing.hpp"
#include "fleet/replica_fleet.hpp"
#include "machine/catalog.hpp"
#include "service/protocol.hpp"

namespace pglb {
namespace {

SpawnOptions small_replicas() {
  SpawnOptions options;
  options.serve_path = PGLB_SERVE_PATH;
  options.threads = 1;
  options.scale = 0.002;
  return options;
}

RouterOptions without_prober() {
  RouterOptions options;
  options.probe_interval_ms = 0;
  return options;
}

/// A plan request that weighted rendezvous over the fleet's current
/// membership ranks `slot` first, so routing it must try that slot.
std::string plan_ranked_first(Router& router, std::size_t slot) {
  const FleetMembership members = router.fleet().membership();
  const std::vector<std::vector<std::string>> clusters = {
      {"m4.2xlarge"}, {"c4.2xlarge"}, {"m4.2xlarge", "c4.2xlarge"},
      {"xeon_server_s", "xeon_server_l"}};
  for (const AppKind app : {AppKind::kPageRank, AppKind::kColoring,
                            AppKind::kConnectedComponents, AppKind::kTriangleCount}) {
    for (const std::vector<std::string>& machines : clusters) {
      PlanRequest request;
      request.id = "t";
      request.app = app;
      request.machines = machines;
      request.alpha = 2.1;
      if (rank_backends(routing_key(request), members.names, members.weights)
              .front() == slot) {
        return serialize_request(request);
      }
    }
  }
  ADD_FAILURE() << "no test request ranks b" << slot << " first";
  return "";
}

bool plan_ok(const std::string& response) {
  return parse_plan_response(response).status == PlanStatus::kOk;
}

/// Gone and reaped: a zombie would still answer kill(pid, 0).
bool reaped(pid_t pid) { return ::kill(pid, 0) == -1 && errno == ESRCH; }

TEST(ReplicaFleet, ScaleDrainRejoinKillRestartShutdown) {
  Registry metrics;
  ReplicaFleet fleet(small_replicas(), without_prober(), WireMode::kAuto, 0,
                     &metrics);
  const std::string port_dir = fleet.port_dir();
  ASSERT_TRUE(std::filesystem::is_directory(port_dir));
  fleet.connect(fleet.spawn_replicas(1));
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_TRUE(plan_ok(fleet.router().route(plan_ranked_first(fleet.router(), 0))));

  // Scale-up spawns a new slot, and the sample names the spec it models.
  fleet.apply(ScaleUp{machine_by_name("c4.4xlarge"), 2.0});
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_GT(fleet.pid(1), 0);
  EXPECT_EQ(fleet.router().fleet().status(1).state, BackendState::kUp);
  const FleetSample sample = fleet.sample();
  ASSERT_EQ(sample.backends.size(), 2u);
  EXPECT_EQ(sample.backends[0].spec_name, "");
  EXPECT_EQ(sample.backends[1].spec_name, "c4.4xlarge");

  // Drain marks the slot draining and reaps its replica.
  const pid_t drained = fleet.pid(1);
  fleet.apply(DrainReplica{"b1", 1});
  EXPECT_EQ(fleet.router().fleet().status(1).state, BackendState::kDraining);
  EXPECT_EQ(fleet.pid(1), -1);
  EXPECT_TRUE(reaped(drained));

  // The next scale-up rejoins the drained slot instead of adding one.
  fleet.apply(ScaleUp{machine_by_name("m4.2xlarge"), 1.0});
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_GT(fleet.pid(1), 0);
  EXPECT_EQ(fleet.router().fleet().status(1).state, BackendState::kUp);
  EXPECT_EQ(fleet.sample().backends[1].spec_name, "c4.4xlarge");

  // Kill b0: a plan ranked to it fails over, and the router marks it down.
  const std::string to_b0 = plan_ranked_first(fleet.router(), 0);
  const pid_t killed = fleet.pid(0);
  fleet.stop_replica(0, SIGKILL);
  EXPECT_EQ(fleet.pid(0), -1);
  EXPECT_TRUE(reaped(killed));
  EXPECT_TRUE(plan_ok(fleet.router().route(to_b0)));
  EXPECT_EQ(fleet.router().fleet().status(0).state, BackendState::kDown);

  // The restart re-admits b0 at once — no probe runs in between — and the
  // same plan lands on it again.
  fleet.restart_replica(0);
  EXPECT_GT(fleet.pid(0), 0);
  EXPECT_EQ(fleet.router().fleet().status(0).state, BackendState::kUp);
  const std::uint64_t routed = metrics.counter("fleet.b0.routed");
  EXPECT_TRUE(plan_ok(fleet.router().route(to_b0)));
  EXPECT_EQ(metrics.counter("fleet.b0.routed"), routed + 1);

  const pid_t b0 = fleet.pid(0);
  const pid_t b1 = fleet.pid(1);
  fleet.shutdown();
  EXPECT_TRUE(reaped(b0));
  EXPECT_TRUE(reaped(b1));
  EXPECT_FALSE(std::filesystem::exists(port_dir));
}

TEST(ReplicaFleet, AttachedFleetLeavesReplicasRunning) {
  Registry metrics;
  ReplicaFleet owner(small_replicas(), without_prober(), WireMode::kAuto, 0,
                     &metrics);
  const std::vector<std::uint16_t> ports = owner.spawn_replicas(2);
  owner.connect(ports);

  Registry attached_metrics;
  ReplicaFleet attached(SpawnOptions{}, without_prober(), WireMode::kAuto, 0,
                        &attached_metrics);
  attached.connect(ports);
  EXPECT_EQ(attached.pid(0), -1);
  EXPECT_TRUE(plan_ok(attached.router().route(plan_ranked_first(attached.router(), 1))));
  attached.shutdown();

  EXPECT_EQ(::kill(owner.pid(0), 0), 0);
  EXPECT_EQ(::kill(owner.pid(1), 0), 0);
  EXPECT_TRUE(plan_ok(owner.router().route(plan_ranked_first(owner.router(), 1))));
  owner.shutdown();
}

}  // namespace
}  // namespace pglb
