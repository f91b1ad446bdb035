#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/flow.hpp"
#include "gen/corpus.hpp"
#include "gen/powerlaw.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

constexpr double kScale = 1.0 / 256.0;

EdgeList small_graph() {
  PowerLawConfig config;
  config.num_vertices = 4000;
  config.alpha = 2.1;
  config.seed = 61;
  return generate_powerlaw(config);
}

TEST(ProfileSingleMachine, FasterMachineProfilesFaster) {
  const auto g = small_graph();
  for (const AppKind app : {AppKind::kPageRank, AppKind::kConnectedComponents,
                            AppKind::kColoring, AppKind::kTriangleCount}) {
    const double slow = profile_single_machine(machine_by_name("xeon_server_s"), app, g, kScale);
    const double fast = profile_single_machine(machine_by_name("xeon_server_l"), app, g, kScale);
    EXPECT_GT(slow, fast) << to_string(app);
  }
}

TEST(ProfileSingleMachine, DeterministicVirtualTime) {
  const auto g = small_graph();
  const double a =
      profile_single_machine(machine_by_name("c4.2xlarge"), AppKind::kPageRank, g, kScale);
  const double b =
      profile_single_machine(machine_by_name("c4.2xlarge"), AppKind::kPageRank, g, kScale);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ProfileSingleMachine, PartitionSeedIsFixedByDesign) {
  // A profile entry must be a pure function of (machine class, app, proxy):
  // the service's profile cache keys carry no seed, so a cached entry has to
  // be byte-identical to a fresh run, and CCR is meant to capture hardware,
  // not partition sampling.  The partition seed is therefore a pinned
  // constant, not plumbed from the pipeline seed.  On the one-machine
  // profiling cluster the partition is degenerate anyway (every edge lands on
  // machine 0), so no information is lost by fixing it.
  EXPECT_EQ(kProfilingPartitionSeed, 0u);
  const auto g = small_graph();
  const double a =
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale);
  const double b =
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale);
  EXPECT_EQ(a, b);
}

TEST(ProfileCluster, OneEntryPerAppPerProxy) {
  ProxySuite suite(kScale);
  const auto cluster = testing::case2_cluster();
  const AppKind apps[] = {AppKind::kPageRank, AppKind::kTriangleCount};
  TimeDatabase pool;
  EXPECT_EQ(profile_cluster(pool, cluster, suite, apps), 12u);  // 2 x 3 x 2
  ASSERT_EQ(pool.size(), 12u);
  for (const AppKind app : apps) {
    for (const ProxySuite::Proxy& proxy : suite.proxies()) {
      const auto slow = pool.lookup({app, proxy.alpha, "xeon_server_s"});
      const auto fast = pool.lookup({app, proxy.alpha, "xeon_server_l"});
      ASSERT_TRUE(slow && fast) << to_string(app) << " alpha " << proxy.alpha;
      EXPECT_GT(*slow, *fast) << "xeon_server_l must out-profile xeon_server_s";
    }
  }
}

TEST(ProfileCluster, GroupsCollapseIdenticalMachines) {
  ProxySuite suite(kScale);
  const auto& m = machine_by_name("c4.2xlarge");
  const Cluster cluster({m, m, m});  // one machine type only
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  EXPECT_EQ(profile_cluster(pool, cluster, suite, apps), 3u);  // one per proxy
  EXPECT_EQ(pool.ccr_for(cluster, AppKind::kPageRank, 2.1),
            (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(ProfileCluster, RejectsDifferentSpecsSharingAName) {
  // The pool keys on the machine name, so two different specs under one name
  // would overwrite each other's times; refuse before profiling anything.
  ProxySuite suite(kScale);
  const MachineSpec& base = machine_by_name("c4.2xlarge");
  MachineSpec faster = base;
  faster.freq_ghz *= 2.0;
  const AppKind apps[] = {AppKind::kPageRank};
  TimeDatabase pool;
  EXPECT_THROW(profile_cluster(pool, Cluster({base, faster}), suite, apps),
               std::invalid_argument);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ProfileGroupsOnGraph, MatchesSingleMachineProfiles) {
  const auto g = small_graph();
  const auto cluster = testing::case2_cluster();
  const auto times = profile_groups_on_graph(cluster, AppKind::kPageRank, g, kScale);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(
      times[0],
      profile_single_machine(machine_by_name("xeon_server_s"), AppKind::kPageRank, g, kScale));
}

// --- online CCR maintenance (Sec. III-B) ------------------------------------
// "Re-profiling is only required if new machine types are deployed...
// Varying the cluster composition among existing machines does not require
// CCR updates": profile_cluster over a kept pool runs only the missing cells.

constexpr AppKind kPageRankOnly[] = {AppKind::kPageRank};

TEST(OnlineCcr, FirstRefreshProfilesEveryGroup) {
  const ProxySuite suite(kScale);
  TimeDatabase pool;
  // 1 app x 3 proxies x 2 machine types.
  EXPECT_EQ(profile_cluster(pool, testing::case2_cluster(), suite, kPageRankOnly), 6u);
}

TEST(OnlineCcr, SecondRefreshIsFree) {
  const ProxySuite suite(kScale);
  const auto cluster = testing::case2_cluster();
  TimeDatabase pool;
  EXPECT_EQ(profile_cluster(pool, cluster, suite, kPageRankOnly), 6u);
  EXPECT_EQ(profile_cluster(pool, cluster, suite, kPageRankOnly), 0u);
  EXPECT_EQ(pool.size(), 6u);
}

TEST(OnlineCcr, CompositionChangeAmongKnownTypesIsFree) {
  const ProxySuite suite(kScale);
  TimeDatabase pool;
  profile_cluster(pool, testing::case2_cluster(), suite, kPageRankOnly);
  const Cluster bigger({machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l"),
                        machine_by_name("xeon_server_l"),
                        machine_by_name("xeon_server_s")});
  EXPECT_EQ(profile_cluster(pool, bigger, suite, kPageRankOnly), 0u);
  const auto ccr = pool.ccr_for(bigger, AppKind::kPageRank, 2.1);
  ASSERT_EQ(ccr.size(), 4u);
  EXPECT_DOUBLE_EQ(ccr[0], ccr[3]);
  EXPECT_DOUBLE_EQ(ccr[1], ccr[2]);
  EXPECT_GT(ccr[1], ccr[0]);
}

TEST(OnlineCcr, NewMachineTypeProfilesIncrementally) {
  const ProxySuite suite(kScale);
  TimeDatabase pool;
  profile_cluster(pool, testing::case2_cluster(), suite, kPageRankOnly);
  const Cluster upgraded({machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l"),
                          machine_by_name("c4.xlarge"), machine_by_name("c4.xlarge")});
  // Only the new type, once per proxy despite its two instances.
  EXPECT_EQ(profile_cluster(pool, upgraded, suite, kPageRankOnly), 3u);
  EXPECT_EQ(pool.size(), 9u);
  for (const ProxySuite::Proxy& proxy : suite.proxies()) {
    EXPECT_TRUE(pool.lookup({AppKind::kPageRank, proxy.alpha, "c4.xlarge"}).has_value());
  }
  EXPECT_NO_THROW(pool.ccr_for(upgraded, AppKind::kPageRank, 2.1));
}

TEST(OnlineCcr, PreloadedDatabaseAvoidsProfiling) {
  const ProxySuite suite(kScale);
  const auto cluster = testing::case2_cluster();
  TimeDatabase first;
  profile_cluster(first, cluster, suite, kPageRankOnly);
  const testing::ScratchDir scratch("online_preload");
  const std::string path = scratch.file("pool.tsv");
  save_time_database(first, path);
  TimeDatabase second = load_time_database(path);
  EXPECT_EQ(profile_cluster(second, cluster, suite, kPageRankOnly), 0u);
  EXPECT_EQ(second.entries(), first.entries());
}

TEST(OnlineCcr, UnprofiledClusterThrows) {
  const TimeDatabase pool;
  EXPECT_THROW(pool.ccr_for(testing::case2_cluster(), AppKind::kPageRank, 2.1),
               std::out_of_range);
}

TEST(OnlineCcr, ProxyCcrEstimatorPlugsIntoTheFlow) {
  const auto cluster = testing::case2_cluster();
  TimeDatabase pool;
  profile_cluster(pool, cluster, ProxySuite(kScale), kPageRankOnly);

  const auto graph = make_corpus_graph(corpus_entry("wiki"), kScale);
  FlowOptions options;
  options.scale = kScale;
  const ProxyCcrEstimator guided(pool);
  const UniformEstimator uniform;
  const auto ccr = run_flow(graph, AppKind::kPageRank, cluster, guided, options);
  const auto plain = run_flow(graph, AppKind::kPageRank, cluster, uniform, options);
  EXPECT_LT(ccr.app.report.makespan_seconds, plain.app.report.makespan_seconds);
}

}  // namespace
}  // namespace pglb
