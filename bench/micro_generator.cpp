// Microbenchmark (google-benchmark): synthetic graph generation and
// partitioning throughput.  Sec. III-A2 reports 67 s to generate the three
// full-size proxies; this measures our generator's edges/second so the
// full-scale cost can be extrapolated.

#include <benchmark/benchmark.h>

#include "gen/chung_lu.hpp"
#include "gen/powerlaw.hpp"
#include "partition/factory.hpp"
#include "partition/weights.hpp"

namespace {

void BM_PowerlawGenerate(benchmark::State& state) {
  pglb::PowerLawConfig config;
  config.num_vertices = static_cast<pglb::VertexId>(state.range(0));
  config.alpha = 2.1;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    config.seed++;
    const auto g = pglb::generate_powerlaw(config);
    edges += g.num_edges();
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_PowerlawGenerate)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_ChungLuGenerate(benchmark::State& state) {
  pglb::ChungLuConfig config;
  config.num_vertices = static_cast<pglb::VertexId>(state.range(0));
  config.target_edges = static_cast<pglb::EdgeId>(state.range(0)) * 12;
  config.alpha = 2.1;
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(pglb::generate_chung_lu(config).num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 12);
}
BENCHMARK(BM_ChungLuGenerate)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_Partitioner(benchmark::State& state) {
  pglb::PowerLawConfig config;
  config.num_vertices = 50'000;
  config.alpha = 2.1;
  const auto g = pglb::generate_powerlaw(config);
  const auto kind = static_cast<pglb::PartitionerKind>(state.range(0));
  const auto partitioner = pglb::make_partitioner(kind);
  const auto weights = pglb::uniform_weights(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner->partition(g, weights, 1).num_machines);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.num_edges()));
  state.SetLabel(pglb::to_string(kind));
}
BENCHMARK(BM_Partitioner)
    ->DenseRange(0, 6, 1)  // all seven PartitionerKind values
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
