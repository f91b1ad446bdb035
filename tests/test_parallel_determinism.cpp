// Determinism property tests for the shared thread pool: every parallelized
// pipeline stage must produce BIT-IDENTICAL results at 1, 2 and 8 threads,
// and the 1-thread results must match goldens captured from the pre-pool
// serial implementation (so parallelization changed nothing).

#include <gtest/gtest.h>

#include <vector>

#include "core/profiler.hpp"
#include "core/proxy_suite.hpp"
#include "engine/engine.hpp"
#include "gen/chung_lu.hpp"
#include "gen/corpus.hpp"
#include "gen/powerlaw.hpp"
#include "machine/catalog.hpp"
#include "partition/metrics.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"
#include "service/planner.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace pglb {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// Order-sensitive digest of an edge list: equal digests = identical graphs.
std::uint64_t edge_digest(const EdgeList& g) {
  std::uint64_t h = hash_u64(g.num_vertices(), 0xABCD);
  for (const Edge& e : g.edges()) h = hash_combine(h, hash_edge(e.src, e.dst));
  return h;
}

TEST(ParallelDeterminism, PowerlawGraphIsThreadCountInvariant) {
  PowerLawConfig config;
  config.num_vertices = 5000;
  config.alpha = 2.1;
  config.seed = 42;
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const EdgeList g = generate_powerlaw(config, &pool);
    // Goldens captured from the pre-thread-pool serial generator.
    EXPECT_EQ(g.num_edges(), 19128u) << threads << " threads";
    EXPECT_EQ(edge_digest(g), 0x9a127e2dd78af95full) << threads << " threads";
  }
}

TEST(ParallelDeterminism, ChungLuGraphIsThreadCountInvariant) {
  ChungLuConfig config;
  config.num_vertices = 4000;
  config.target_edges = 20000;
  config.alpha = 2.2;
  config.seed = 7;
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const EdgeList g = generate_chung_lu(config, &pool);
    EXPECT_EQ(g.num_edges(), 20000u) << threads << " threads";
    EXPECT_EQ(edge_digest(g), 0xa86e5d5d7a1d0c3cull) << threads << " threads";
  }
}

TEST(ParallelDeterminism, CorpusGraphIsThreadCountInvariant) {
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const EdgeList g = make_corpus_graph(corpus_entry("amazon"), 1.0 / 64.0, 3, &pool);
    EXPECT_EQ(g.num_edges(), 52928u) << threads << " threads";
    EXPECT_EQ(edge_digest(g), 0x527c5cae3dd75c38ull) << threads << " threads";
  }
}

TEST(ParallelDeterminism, ProxySuiteIsThreadCountInvariant) {
  ThreadPool serial(1);
  const ProxySuite reference(1.0 / 256.0, 17, &serial);
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const ProxySuite suite(1.0 / 256.0, 17, &pool);
    ASSERT_EQ(suite.proxies().size(), reference.proxies().size());
    for (std::size_t i = 0; i < suite.proxies().size(); ++i) {
      EXPECT_EQ(suite.proxies()[i].alpha, reference.proxies()[i].alpha);
      EXPECT_EQ(edge_digest(suite.proxies()[i].graph),
                edge_digest(reference.proxies()[i].graph))
          << threads << " threads, proxy " << i;
      EXPECT_EQ(suite.proxies()[i].stats.num_edges, reference.proxies()[i].stats.num_edges);
    }
  }
}

TEST(ParallelDeterminism, ProfilerPoolMatchesSerialGoldens) {
  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  const AppKind apps[] = {AppKind::kPageRank, AppKind::kTriangleCount};

  // Times captured from the pre-thread-pool serial profiler (app-major, then
  // proxy alpha 1.95 / 2.1 / 2.3; one time per machine type).
  const std::vector<std::vector<double>> golden = {
      {6.1151409509545154, 2.0871069227198324},    // pagerank, 1.95
      {3.6172971327305845, 1.2183652400979097},    // pagerank, 2.1
      {2.2696769936892753, 0.7537691471235789},    // pagerank, 2.3
      {591.53004239111408, 194.51991644933869},    // triangle_count, 1.95
      {70.712872305168744, 22.955362622513949},    // triangle_count, 2.1
      {6.8318462891976068, 2.1583680882426921},    // triangle_count, 2.3
  };

  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const ProxySuite suite(1.0 / 256.0, 17, &pool);
    TimeDatabase ccr;
    ASSERT_EQ(profile_cluster(ccr, cluster, suite, apps, &pool), 12u)
        << threads << " threads";
    for (std::size_t i = 0; i < golden.size(); ++i) {
      const AppKind app = apps[i / 3];
      const double alpha = suite.proxies()[i % 3].alpha;
      for (std::size_t g = 0; g < golden[i].size(); ++g) {
        const auto seconds = ccr.lookup({app, alpha, cluster.machine(g).name});
        ASSERT_TRUE(seconds.has_value());
        EXPECT_EQ(*seconds, golden[i][g])  // exact bit equality
            << threads << " threads, entry " << i << ", machine " << g;
      }
    }
  }
}

TEST(ParallelDeterminism, PartitionMetricsAreThreadCountInvariant) {
  ThreadPool serial(1);
  const EdgeList graph = make_corpus_graph(corpus_entry("amazon"), 1.0 / 64.0, 3, &serial);
  const RandomHashPartitioner partitioner;
  const auto weights = uniform_weights(8);
  const auto assignment = partitioner.partition(graph, weights, 1);
  const PartitionMetrics reference =
      compute_partition_metrics(graph, assignment, weights, &serial);
  EXPECT_GT(reference.replication_factor, 1.0);

  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const PartitionMetrics metrics =
        compute_partition_metrics(graph, assignment, weights, &pool);
    EXPECT_EQ(metrics.replication_factor, reference.replication_factor);
    EXPECT_EQ(metrics.replicas_per_machine, reference.replicas_per_machine);
    EXPECT_EQ(metrics.edges_per_machine, reference.edges_per_machine);
    EXPECT_EQ(metrics.weighted_imbalance, reference.weighted_imbalance);
    EXPECT_EQ(metrics.uniform_imbalance, reference.uniform_imbalance);
  }
}

TEST(ParallelDeterminism, EngineExecReportIsThreadCountInvariant) {
  // A cluster wide enough that per-machine accounting actually shards.
  std::vector<MachineSpec> machines;
  for (int m = 0; m < 200; ++m) {
    machines.push_back(machine_by_name(m % 2 == 0 ? "xeon_server_s" : "xeon_server_l"));
  }
  const Cluster cluster(std::move(machines));

  WorkloadTraits traits;
  traits.num_vertices_m = 1.0;
  traits.footprint_mb = 100.0;
  traits.degree_skew = 100.0;

  const auto run_with = [&](ThreadPool& pool) {
    VirtualClusterExecutor exec(cluster, profile_for(AppKind::kPageRank), traits);
    exec.set_thread_pool(&pool);
    std::vector<double> ops(cluster.size()), comm(cluster.size());
    for (int step = 0; step < 3; ++step) {
      for (MachineId m = 0; m < cluster.size(); ++m) {
        ops[m] = 1e8 * static_cast<double>(1 + (m * 7 + step) % 13);
        comm[m] = 1e6 * static_cast<double>((m * 3 + step) % 5);
      }
      exec.record_superstep(ops, comm);
    }
    return exec.finish("determinism", true);
  };

  ThreadPool serial(1);
  const ExecReport reference = run_with(serial);
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    const ExecReport report = run_with(pool);
    EXPECT_EQ(report.makespan_seconds, reference.makespan_seconds) << threads;
    EXPECT_EQ(report.total_ops, reference.total_ops) << threads;
    EXPECT_EQ(report.total_joules, reference.total_joules) << threads;
    ASSERT_EQ(report.per_machine.size(), reference.per_machine.size());
    for (std::size_t m = 0; m < reference.per_machine.size(); ++m) {
      EXPECT_EQ(report.per_machine[m].compute_seconds,
                reference.per_machine[m].compute_seconds)
          << threads << " threads, machine " << m;
      EXPECT_EQ(report.per_machine[m].comm_seconds, reference.per_machine[m].comm_seconds);
      EXPECT_EQ(report.per_machine[m].idle_seconds, reference.per_machine[m].idle_seconds);
      EXPECT_EQ(report.per_machine[m].ops, reference.per_machine[m].ops);
      EXPECT_EQ(report.per_machine[m].joules, reference.per_machine[m].joules);
    }
    ASSERT_EQ(report.trace.size(), reference.trace.size());
    for (std::size_t s = 0; s < reference.trace.size(); ++s) {
      EXPECT_EQ(report.trace[s].window_seconds, reference.trace[s].window_seconds);
      EXPECT_EQ(report.trace[s].exchange_seconds, reference.trace[s].exchange_seconds);
      EXPECT_EQ(report.trace[s].straggler, reference.trace[s].straggler);
      EXPECT_EQ(report.trace[s].total_ops, reference.trace[s].total_ops);
    }
  }
}

TEST(ParallelDeterminism, PlannerResponsesAreThreadCountInvariant) {
  PlanRequest request;
  request.id = "det";
  request.machines = {"xeon_server_s", "xeon_server_l", "xeon_server_l"};
  request.app = AppKind::kPageRank;
  request.vertices = 400'000;
  request.edges = 3'300'000;

  const auto plan_with = [&](unsigned threads) {
    PlannerOptions options;
    options.proxy_scale = 1.0 / 256.0;
    options.threads = threads;
    Planner planner(options);
    return planner.plan(request);
  };

  const PlanResponse reference = plan_with(1);
  ASSERT_TRUE(reference.ok) << reference.error;
  for (const unsigned threads : kThreadCounts) {
    const PlanResponse response = plan_with(threads);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(serialize_response(response), serialize_response(reference)) << threads;
  }
}

}  // namespace
}  // namespace pglb
