// Microbenchmark (google-benchmark): the Eq. 7 Newton solver.  Sec. III-A3
// claims the alpha computation is "extremely quick (less than 1 ms)"; this
// measures it across graph sizes and degree supports.  The moments are in
// closed form past degree 16, so every size costs the same few microseconds.

#include <benchmark/benchmark.h>

#include "gen/alpha_solver.hpp"

namespace {

void BM_SolveAlpha(benchmark::State& state) {
  const auto vertices = static_cast<pglb::VertexId>(state.range(0));
  const auto edges = static_cast<pglb::EdgeId>(state.range(0)) * 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pglb::solve_alpha(vertices, edges));
  }
}
BENCHMARK(BM_SolveAlpha)->Arg(100'000)->Arg(1'000'000)->Arg(4'847'571);

void BM_SolveAlphaSupport(benchmark::State& state) {
  pglb::AlphaSolverOptions options;
  options.degree_support = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pglb::solve_alpha(1'000'000, 10'000'000, options));
  }
}
BENCHMARK(BM_SolveAlphaSupport)->Arg(100)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_PowerlawMeanDegree(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pglb::powerlaw_mean_degree(2.1, static_cast<std::uint64_t>(state.range(0))));
  }
}
BENCHMARK(BM_PowerlawMeanDegree)->Arg(10'000)->Arg(1'000'000);

}  // namespace

BENCHMARK_MAIN();
