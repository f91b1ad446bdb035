#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "apps/registry.hpp"
#include "gen/powerlaw.hpp"
#include "graph/stats.hpp"
#include "machine/catalog.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

// The executor keeps pointers to its cluster and app profile, so building it
// from a temporary of either must not compile.
static_assert(std::is_constructible_v<VirtualClusterExecutor, const Cluster&,
                                      const AppProfile&, const WorkloadTraits&>);
static_assert(!std::is_constructible_v<VirtualClusterExecutor, Cluster&&,
                                       const AppProfile&, const WorkloadTraits&>);
static_assert(!std::is_constructible_v<VirtualClusterExecutor, const Cluster&,
                                       AppProfile&&, const WorkloadTraits&>);
static_assert(!std::is_constructible_v<VirtualClusterExecutor, Cluster&&,
                                       AppProfile&&, const WorkloadTraits&>);

WorkloadTraits traits() {
  WorkloadTraits t;
  t.num_vertices_m = 1.0;
  t.footprint_mb = 100.0;
  t.degree_skew = 100.0;
  return t;
}

TEST(Executor, BarrierMakesStragglerDefineTheSuperstep) {
  const auto cluster = testing::case2_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());

  // Hand the slow machine (0) most of the work: its compute time dominates.
  const std::vector<double> ops = {1e9, 1e9};
  const std::vector<double> comm = {0.0, 0.0};
  exec.record_superstep(ops, comm);
  const auto report = exec.finish("test", true);

  const double t0 = 1e9 / exec.throughput(0);
  const double t1 = 1e9 / exec.throughput(1);
  EXPECT_GT(t0, t1);  // machine 0 is the straggler
  EXPECT_NEAR(report.makespan_seconds, t0, 1e-9);
  EXPECT_NEAR(report.per_machine[1].idle_seconds, t0 - t1, 1e-9);
  EXPECT_NEAR(report.per_machine[0].idle_seconds, 0.0, 1e-12);
}

TEST(Executor, SuperstepsAddUp) {
  const auto cluster = testing::case2_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e8, 1e8};
  const std::vector<double> comm = {0.0, 0.0};
  exec.record_superstep(ops, comm);
  exec.record_superstep(ops, comm);
  const auto report = exec.finish("test", true);
  EXPECT_EQ(report.supersteps, 2);
  EXPECT_NEAR(report.makespan_seconds, 2.0 * 1e8 / exec.throughput(0), 1e-9);
  EXPECT_DOUBLE_EQ(report.total_ops, 4e8);
}

TEST(Executor, HeavyCommunicationAddsToBusyTime) {
  const auto cluster = testing::case1_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e8, 1e8};
  const std::vector<double> no_comm = {0.0, 0.0};
  const std::vector<double> heavy_comm = {1e10, 1e10};  // a long exchange phase
  exec.record_superstep(ops, heavy_comm);
  const auto report = exec.finish("test", true);
  EXPECT_GT(report.per_machine[0].comm_seconds, 0.0);

  VirtualClusterExecutor exec2(cluster, profile_for(AppKind::kPageRank), traits());
  exec2.record_superstep(ops, no_comm);
  const auto report2 = exec2.finish("test", true);
  EXPECT_GT(report.makespan_seconds, report2.makespan_seconds);
}

TEST(Executor, ZeroTrafficCostsNothing) {
  // Single-machine profiling runs have no mirrors: the exchange phase (and
  // its latency) must vanish so CCRs are pure throughput ratios.
  const auto cluster = testing::case1_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e9, 1e9};
  const std::vector<double> no_comm = {0.0, 0.0};
  exec.record_superstep(ops, no_comm);
  const auto report = exec.finish("test", true);
  EXPECT_DOUBLE_EQ(report.per_machine[0].comm_seconds, 0.0);
  EXPECT_NEAR(report.makespan_seconds, 1e9 / exec.throughput(0), 1e-9);
}

TEST(Executor, ExchangePhaseIsSharedByAllMachines) {
  // The mirror exchange is a collective: both machines are busy for the same
  // exchange duration, which adds to the superstep after the compute barrier.
  const auto cluster = testing::case1_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e9, 1e9};
  const std::vector<double> comm = {1.25e9, 1.25e9};  // 2 seconds of traffic
  exec.record_superstep(ops, comm);
  const auto report = exec.finish("test", true);
  const double exchange = cluster.network().exchange_seconds(2.5e9);
  EXPECT_DOUBLE_EQ(report.per_machine[0].comm_seconds, exchange);
  EXPECT_DOUBLE_EQ(report.per_machine[1].comm_seconds, exchange);
  EXPECT_NEAR(report.makespan_seconds, 1e9 / exec.throughput(0) + exchange, 1e-9);
}

TEST(Executor, AsyncModeSkipsPerStepBarriers) {
  // Coloring profile is asynchronous: two supersteps with alternating
  // stragglers cost max(total) rather than sum of per-step maxima.
  const auto cluster = testing::case2_cluster();
  const AppProfile& async_app = profile_for(AppKind::kColoring);
  ASSERT_FALSE(async_app.synchronous);

  VirtualClusterExecutor exec(cluster, async_app, traits());
  const std::vector<double> step1 = {1e9, 1e7};
  const std::vector<double> step2 = {1e7, 1e9};
  const std::vector<double> comm = {0.0, 0.0};
  exec.record_superstep(step1, comm);
  exec.record_superstep(step2, comm);
  const auto report = exec.finish("coloring", true);

  const double busy0 = (1e9 + 1e7) / exec.throughput(0);
  const double busy1 = (1e7 + 1e9) / exec.throughput(1);
  EXPECT_NEAR(report.makespan_seconds, std::max(busy0, busy1), 1e-9);

  // A synchronous executor over the same schedule must be slower.
  VirtualClusterExecutor sync_exec(cluster, profile_for(AppKind::kConnectedComponents),
                                   traits());
  sync_exec.record_superstep(step1, comm);
  sync_exec.record_superstep(step2, comm);
  const auto sync_report = sync_exec.finish("cc", true);
  // Step 1 straggler: slow machine with 1e9 ops; step 2 straggler: whichever
  // of {slow at 1e7, fast at 1e9} takes longer.
  const double step1_window = 1e9 / sync_exec.throughput(0);
  const double step2_window =
      std::max(1e7 / sync_exec.throughput(0), 1e9 / sync_exec.throughput(1));
  EXPECT_NEAR(sync_report.makespan_seconds, step1_window + step2_window, 1e-9);
}

TEST(Executor, EnergyMatchesBusyIdleIntegration) {
  const auto cluster = testing::case2_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e9, 1e9};
  const std::vector<double> comm = {0.0, 0.0};
  exec.record_superstep(ops, comm);
  const auto report = exec.finish("test", true);

  const auto& s = cluster.machine(0);
  const auto& l = cluster.machine(1);
  const double t0 = 1e9 / exec.throughput(0);
  const double t1 = 1e9 / exec.throughput(1);
  const double expected =
      s.tdp_watts * t0 + l.tdp_watts * t1 + l.idle_watts * (t0 - t1);
  EXPECT_NEAR(report.total_joules, expected, expected * 1e-9);
}

TEST(Executor, GuardsAgainstMisuse) {
  const auto cluster = testing::case1_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> wrong_size = {1.0};
  const std::vector<double> comm = {0.0, 0.0};
  EXPECT_THROW(exec.record_superstep(wrong_size, comm), std::invalid_argument);
  (void)exec.finish("test", true);
  EXPECT_THROW(exec.finish("test", true), std::logic_error);
  const std::vector<double> ops = {1.0, 1.0};
  EXPECT_THROW(exec.record_superstep(ops, comm), std::logic_error);
}

TEST(MirrorSyncBytes, ProportionalToMirrors) {
  EdgeList g(3);
  g.add(0, 1);
  g.add(1, 0);
  g.add(1, 2);
  PartitionAssignment a;
  a.num_machines = 2;
  a.edge_to_machine = {0, 0, 1};
  const auto dg = build_distributed(g, a);
  const auto bytes = mirror_sync_bytes(dg, profile_for(AppKind::kPageRank));
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_DOUBLE_EQ(bytes[0], 0.0);  // no mirrors on machine 0
  EXPECT_DOUBLE_EQ(bytes[1],
                   2.0 * profile_for(AppKind::kPageRank).bytes_per_mirror);
}

TEST(Executor, TraceRecordsWindowsAndStragglers) {
  const auto cluster = testing::case2_cluster();  // machine 0 slow, 1 fast
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> comm = {0.0, 0.0};
  const std::vector<double> slow_heavy = {1e9, 1e8};
  const std::vector<double> fast_heavy = {1e6, 1e9};
  exec.record_superstep(slow_heavy, comm);
  exec.record_superstep(fast_heavy, comm);
  const auto report = exec.finish("test", true);

  ASSERT_EQ(report.trace.size(), 2u);
  EXPECT_EQ(report.trace[0].straggler, 0u);
  EXPECT_EQ(report.trace[1].straggler, 1u);
  EXPECT_DOUBLE_EQ(report.trace[0].exchange_seconds, 0.0);
  double window_sum = 0.0;
  for (const SuperstepTrace& step : report.trace) window_sum += step.window_seconds;
  EXPECT_NEAR(window_sum, report.makespan_seconds, 1e-12);
  EXPECT_DOUBLE_EQ(report.trace[0].total_ops, 1.1e9);

  EXPECT_DOUBLE_EQ(report.straggler_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(report.straggler_fraction(1), 0.5);
}

TEST(Executor, AsyncRunsHaveNoTrace) {
  const auto cluster = testing::case2_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kColoring), traits());
  const std::vector<double> ops = {1e8, 1e8};
  const std::vector<double> comm = {0.0, 0.0};
  exec.record_superstep(ops, comm);
  const auto report = exec.finish("coloring", true);
  EXPECT_TRUE(report.trace.empty());
  EXPECT_DOUBLE_EQ(report.straggler_fraction(0), 0.0);
}

TEST(Executor, EnergyBoundedByPowerEnvelope) {
  // Conservation property: total energy must lie between "everyone idle for
  // the whole makespan" and "everyone at TDP for the whole makespan".
  const auto cluster = testing::case2_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> comm = {1e7, 1e7};
  const std::vector<double> step1 = {1e9, 3e8};
  const std::vector<double> step2 = {2e8, 9e8};
  exec.record_superstep(step1, comm);
  exec.record_superstep(step2, comm);
  const auto report = exec.finish("test", true);

  double idle_floor = 0.0, tdp_ceiling = 0.0;
  for (const MachineSpec& m : cluster.machines()) {
    idle_floor += m.idle_watts * report.makespan_seconds;
    tdp_ceiling += m.tdp_watts * report.makespan_seconds;
  }
  EXPECT_GE(report.total_joules, idle_floor);
  EXPECT_LE(report.total_joules, tdp_ceiling);
}

TEST(Executor, ActivityAccountingIsConsistent) {
  // Per machine: compute + comm + idle must equal the makespan (sync mode).
  const auto cluster = testing::case1_cluster();
  VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> comm = {2e9, 1e9};
  const std::vector<double> step1 = {5e8, 1e9};
  const std::vector<double> step2 = {1e9, 2e8};
  exec.record_superstep(step1, comm);
  exec.record_superstep(step2, comm);
  const auto report = exec.finish("test", true);
  for (const MachineActivity& a : report.per_machine) {
    EXPECT_NEAR(a.compute_seconds + a.comm_seconds + a.idle_seconds,
                report.makespan_seconds, 1e-9);
  }
}

TEST(ExecReport, IdleFractionAndSummary) {
  ExecReport report;
  report.app_name = "x";
  report.per_machine.resize(2);
  report.per_machine[0].compute_seconds = 3.0;
  report.per_machine[1].compute_seconds = 1.0;
  report.per_machine[1].idle_seconds = 2.0;
  EXPECT_NEAR(report.idle_fraction(), 2.0 / 6.0, 1e-12);
  EXPECT_NE(report.summary().find("x"), std::string::npos);
}

// --- pricing recorded work -----------------------------------------------
// An app's recorded work depends only on the app, the graph and the
// partition, so replaying it on other machines must reproduce a real run
// there bit for bit.

void expect_same_report(const ExecReport& priced, const ExecReport& real) {
  EXPECT_EQ(priced.app_name, real.app_name);
  EXPECT_EQ(priced.makespan_seconds, real.makespan_seconds);
  EXPECT_EQ(priced.total_joules, real.total_joules);
  EXPECT_EQ(priced.supersteps, real.supersteps);
  EXPECT_EQ(priced.converged, real.converged);
  EXPECT_EQ(priced.total_ops, real.total_ops);
  ASSERT_EQ(priced.per_machine.size(), real.per_machine.size());
  for (std::size_t m = 0; m < real.per_machine.size(); ++m) {
    EXPECT_EQ(priced.per_machine[m].compute_seconds, real.per_machine[m].compute_seconds);
    EXPECT_EQ(priced.per_machine[m].comm_seconds, real.per_machine[m].comm_seconds);
    EXPECT_EQ(priced.per_machine[m].idle_seconds, real.per_machine[m].idle_seconds);
    EXPECT_EQ(priced.per_machine[m].ops, real.per_machine[m].ops);
    EXPECT_EQ(priced.per_machine[m].joules, real.per_machine[m].joules);
  }
  ASSERT_EQ(priced.trace.size(), real.trace.size());
  for (std::size_t s = 0; s < real.trace.size(); ++s) {
    EXPECT_EQ(priced.trace[s].window_seconds, real.trace[s].window_seconds);
    EXPECT_EQ(priced.trace[s].exchange_seconds, real.trace[s].exchange_seconds);
    EXPECT_EQ(priced.trace[s].straggler, real.trace[s].straggler);
    EXPECT_EQ(priced.trace[s].total_ops, real.trace[s].total_ops);
  }
  EXPECT_EQ(priced.work.machines, real.work.machines);
  EXPECT_EQ(priced.work.ops, real.work.ops);
  EXPECT_EQ(priced.work.comm_bytes, real.work.comm_bytes);
}

struct PreparedRun {
  EdgeList graph{0};
  WorkloadTraits traits;
  DistributedGraph dg;
};

PreparedRun prepare_run(AppKind app, const std::vector<double>& weights) {
  PowerLawConfig config;
  config.num_vertices = 2'000;
  config.alpha = 2.1;
  config.seed = 7;
  PreparedRun run{prepare_graph_for(app, generate_powerlaw(config)), {}, {}};
  run.traits = traits_from_stats(compute_stats(run.graph), 1.0 / 256.0);
  run.dg = build_distributed(run.graph,
                             RandomHashPartitioner().partition(run.graph, weights, 3));
  return run;
}

TEST(Price, SingleMachineRunPricedOnEveryTypeMatchesARealRun) {
  const std::vector<double> weights{1.0};
  for (const AppKind app : all_app_kinds()) {
    SCOPED_TRACE(to_string(app));
    const PreparedRun run = prepare_run(app, weights);
    const Cluster base{std::vector<MachineSpec>{machine_by_name("xeon_server_s")}};
    const ExecReport recorded = run_app(app, run.graph, run.dg, base, run.traits).report;
    ASSERT_EQ(recorded.work.machines, 1u);
    ASSERT_EQ(recorded.work.ops.size(), static_cast<std::size_t>(recorded.supersteps));
    for (const MachineSpec& spec : table1_machines()) {
      SCOPED_TRACE(spec.name);
      const Cluster other{std::vector<MachineSpec>{spec}};
      expect_same_report(price(recorded, other, profile_for(app), run.traits),
                         run_app(app, run.graph, run.dg, other, run.traits).report);
    }
  }
}

TEST(Price, MixedClusterReplayMatchesARealRun) {
  const std::vector<double> weights{0.1, 0.2, 0.3, 0.4};
  const Cluster recorded_on({machine_by_name("xeon_server_s"), machine_by_name("c4.xlarge"),
                             machine_by_name("m4.2xlarge"), machine_by_name("xeon_server_l")});
  const Cluster priced_on({machine_by_name("c4.8xlarge"), machine_by_name("r3.2xlarge"),
                           machine_by_name("xeon_server_s"), machine_by_name("c4.2xlarge")});
  for (const AppKind app : all_app_kinds()) {
    SCOPED_TRACE(to_string(app));
    const PreparedRun run = prepare_run(app, weights);
    const ExecReport recorded =
        run_app(app, run.graph, run.dg, recorded_on, run.traits).report;
    expect_same_report(price(recorded, priced_on, profile_for(app), run.traits),
                       run_app(app, run.graph, run.dg, priced_on, run.traits).report);
  }
}

TEST(Price, RejectsAClusterOfAnotherSize) {
  const Cluster pair = testing::case2_cluster();
  VirtualClusterExecutor exec(pair, profile_for(AppKind::kPageRank), traits());
  const std::vector<double> ops = {1e9, 1e9};
  exec.record_superstep(ops, ops);
  const ExecReport run = exec.finish("test", true);
  const Cluster solo{std::vector<MachineSpec>{machine_by_name("c4.xlarge")}};
  EXPECT_THROW(price(run, solo, profile_for(AppKind::kPageRank), traits()),
               std::invalid_argument);
}

}  // namespace
}  // namespace pglb
