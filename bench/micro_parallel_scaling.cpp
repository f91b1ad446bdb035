// Microbenchmark (google-benchmark): thread-pool scaling of the deterministic
// pipeline stages.  Every benchmark runs the same work at pool sizes 1/2/4/8
// (the Arg) — outputs are bit-identical across the sweep, only wall-clock
// moves, so the series reads directly as parallel speedup.
//
// The acceptance bar for this PR: the profiler suite at 4 threads should run
// at least ~1.5x faster than at 1 thread on a 4-way host.

#include <benchmark/benchmark.h>

#include "core/profiler.hpp"
#include "core/proxy_suite.hpp"
#include "gen/corpus.hpp"
#include "gen/powerlaw.hpp"
#include "machine/catalog.hpp"
#include "partition/metrics.hpp"
#include "partition/random_hash.hpp"
#include "partition/weights.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pglb;

constexpr double kScale = 1.0 / 256.0;
constexpr AppKind kApps[] = {AppKind::kPageRank, AppKind::kColoring,
                             AppKind::kConnectedComponents, AppKind::kTriangleCount};

/// Full profiling pass (4 apps x 3 proxies x 2 machine groups) over a pool of
/// state.range(0) threads.
void BM_ProfilerSuite(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const Cluster cluster(
      {machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
  const ProxySuite suite(kScale, 17, &pool);
  for (auto _ : state) {
    TimeDatabase ccr;
    benchmark::DoNotOptimize(profile_cluster(ccr, cluster, suite, kApps, &pool));
  }
  state.SetLabel(std::to_string(pool.threads()) + " threads");
}
BENCHMARK(BM_ProfilerSuite)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// Proxy generation (Algorithm 1) — the serial degree pass plus the sharded
/// edge fan-out.
void BM_PowerlawGenerate(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  PowerLawConfig config;
  config.num_vertices = 200'000;
  config.alpha = 2.1;
  config.seed = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_powerlaw(config, &pool).num_edges());
  }
  state.SetLabel(std::to_string(pool.threads()) + " threads");
}
BENCHMARK(BM_PowerlawGenerate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// Replication/balance metrics over a partitioned corpus surrogate.
void BM_PartitionMetrics(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const EdgeList graph = make_corpus_graph(corpus_entry("amazon"), 1.0 / 16.0, 3, &pool);
  const RandomHashPartitioner partitioner;
  const auto weights = uniform_weights(8);
  const auto assignment = partitioner.partition(graph, weights, 1);
  for (auto _ : state) {
    const auto metrics = compute_partition_metrics(graph, assignment, weights, &pool);
    benchmark::DoNotOptimize(metrics.replication_factor);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(graph.num_edges()));
  state.SetLabel(std::to_string(pool.threads()) + " threads");
}
BENCHMARK(BM_PartitionMetrics)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
