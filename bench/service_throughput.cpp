// Microbenchmarks of the planning service: warm-cache planner latency (the
// steady-state cost of one plan once its profile is cached), the protocol
// round trip, end-to-end server throughput at varying worker counts, and the
// wire-transport comparison (line-JSON vs the multiplexed binary framing,
// docs/WIRE.md).
//
// `service_throughput --transport-gate` skips the benchmarks and runs the
// transport acceptance gate instead: at concurrency 8 the binary transport
// must not be slower than line-JSON (ctest test wire_transport_gate).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fleet/local_backend.hpp"
#include "fleet/router.hpp"
#include "service/server.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <ext/stdio_filebuf.h>  // libstdc++: iostream over a file descriptor
#include <thread>

#include "fleet/tcp_backend.hpp"
#endif

namespace {

using namespace pglb;

PlannerOptions bench_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;  // tiny proxies: profiling cost stays bounded
  return options;
}

PlanRequest sample_request(int variant) {
  PlanRequest request;
  request.id = "bench";
  request.app = variant % 2 == 0 ? AppKind::kPageRank : AppKind::kColoring;
  request.machines = variant % 4 < 2
                         ? std::vector<std::string>{"m4.2xlarge", "c4.2xlarge"}
                         : std::vector<std::string>{"xeon_server_s", "xeon_server_l"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

/// Planner::plan with the profile already cached — the hot path every
/// repeated request takes.
void BM_planner_warm_cache(benchmark::State& state) {
  Planner planner(bench_options());
  const PlanRequest request = sample_request(0);
  planner.plan(request);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(request));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_planner_warm_cache);

/// Parse + serialize round trip without any planning.
void BM_protocol_round_trip(benchmark::State& state) {
  const std::string line = serialize_request(sample_request(0));
  Planner planner(bench_options());
  const PlanResponse response = planner.plan(parse_plan_request(line));
  const std::string response_line = serialize_response(response);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_plan_request(line));
    benchmark::DoNotOptimize(parse_plan_response(response_line));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_protocol_round_trip);

/// End-to-end submit()->future throughput through the bounded queue and the
/// worker pool, request mix of 4 cached profiles.
void BM_server_throughput(benchmark::State& state) {
  ServiceMetrics metrics;
  Planner planner(bench_options(), &metrics);
  ServerOptions server_options;
  server_options.threads = static_cast<int>(state.range(0));
  PlanServer server(planner, metrics, server_options);
  std::vector<std::string> lines;
  for (int v = 0; v < 4; ++v) {
    lines.push_back(serialize_request(sample_request(v)));
    server.submit(lines.back()).get();  // warm every profile
  }
  constexpr int kBatch = 64;
  for (auto _ : state) {
    std::vector<std::future<std::string>> pending;
    pending.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      pending.push_back(server.submit(lines[static_cast<std::size_t>(i) % lines.size()]));
    }
    for (auto& future : pending) benchmark::DoNotOptimize(future.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_server_throughput)->Arg(1)->Arg(2)->Arg(4);

/// Warm-cache routing through the fleet layer (docs/FLEET.md): the cost the
/// router adds on top of a replica's own submit()->get().  Counters expose
/// the route-latency distribution from the registry's full bucket vectors
/// (stage_buckets), not just a point quantile.
void BM_router_warm_fleet(benchmark::State& state) {
  Registry router_metrics;
  RouterOptions options;
  options.probe_interval_ms = 0;
  Router router(options, &router_metrics);
  for (int k = 0; k < static_cast<int>(state.range(0)); ++k) {
    router.add_backend(std::make_shared<LocalBackend>("b" + std::to_string(k),
                                                      bench_options()));
  }
  std::vector<std::string> lines;
  for (int v = 0; v < 4; ++v) {
    lines.push_back(serialize_request(sample_request(v)));
    router.route(lines.back());  // warm the owning replica's profile cache
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(lines[i++ % lines.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));

  const auto buckets = router_metrics.stage_buckets("router.route");
  std::uint64_t observations = 0;
  for (const LatencyBucket& bucket : buckets) observations += bucket.count;
  state.counters["route_p50_us"] =
      router_metrics.stage_quantile_seconds("router.route", 0.50) * 1e6;
  state.counters["route_p99_us"] =
      router_metrics.stage_quantile_seconds("router.route", 0.99) * 1e6;
  state.counters["route_buckets"] = static_cast<double>(buckets.size());
  state.counters["route_observations"] = static_cast<double>(observations);
}
BENCHMARK(BM_router_warm_fleet)->Arg(1)->Arg(3);

#ifdef __unix__

/// One closed-loop run over a real socket stream: a PlanServer over
/// `planner` serving a socketpair on its own thread, a TcpBackend client
/// keeping `concurrency` requests in flight until `total` have completed.
/// Returns the wall seconds of the timed loop (profiles pre-warmed; the
/// handshake happens before the clock starts), or -1 if no socketpair.
double measure_transport_seconds(Planner& planner, ServiceMetrics& metrics,
                                 WireMode mode, std::size_t concurrency,
                                 std::size_t total) {
  PlanServer server(planner, metrics, {.threads = 4, .queue_capacity = 256});

  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1.0;
  std::thread serving([&server, fd = fds[1]] {
    __gnu_cxx::stdio_filebuf<char> in_buf(fd, std::ios::in);
    __gnu_cxx::stdio_filebuf<char> out_buf(::dup(fd), std::ios::out);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    server.serve_stream(in, out);
  });

  double seconds = 0.0;
  {
    TcpBackend backend("bench", fds[0], mode);
    std::vector<std::string> lines;
    for (int v = 0; v < 4; ++v) {
      lines.push_back(serialize_request(sample_request(v)));
      backend.submit(lines.back()).get();  // warm profile + handshake
    }
    const auto start = std::chrono::steady_clock::now();
    std::deque<std::future<std::string>> inflight;
    std::size_t sent = 0;
    std::size_t completed = 0;
    while (completed < total) {
      while (inflight.size() < concurrency && sent < total) {
        inflight.push_back(backend.submit(lines[sent % lines.size()]));
        ++sent;
      }
      inflight.front().get();
      inflight.pop_front();
      ++completed;
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  }  // backend teardown closes its end; the server sees EOF and returns
  serving.join();
  return seconds;
}

/// Whole-stack transport round trips: range(0) picks the transport
/// (0 = line-JSON, 1 = binary frames), range(1) the in-flight concurrency.
void BM_tcp_transport(benchmark::State& state) {
  const WireMode mode =
      state.range(0) == 0 ? WireMode::kLineJson : WireMode::kBinary;
  const auto concurrency = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kTotal = 512;
  ServiceMetrics metrics;
  Planner planner(bench_options(), &metrics);
  for (auto _ : state) {
    state.SetIterationTime(
        measure_transport_seconds(planner, metrics, mode, concurrency, kTotal));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTotal));
}
BENCHMARK(BM_tcp_transport)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 8})
    ->Args({1, 8})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The PR acceptance gate (docs/WIRE.md): with 8 requests in flight, the
/// multiplexed binary transport must not be slower than line-JSON.  The two
/// transports take turns over one warm planner, so a load spike from other
/// processes lands on both, and the gate compares each one's median run: a
/// single run's throughput swings by a third either way, so the best run of
/// a few compares luck, not framing.  0.85x tolerance so the gate trips on
/// regressions, not on CI jitter.
int run_transport_gate() {
  constexpr std::size_t kConcurrency = 8;
  constexpr std::size_t kRequests = 1024;
  constexpr int kRounds = 31;
  ServiceMetrics metrics;
  Planner planner(bench_options(), &metrics);
  std::vector<double> line_seconds;
  std::vector<double> binary_seconds;
  for (int round = 0; round < kRounds; ++round) {
    line_seconds.push_back(measure_transport_seconds(
        planner, metrics, WireMode::kLineJson, kConcurrency, kRequests));
    binary_seconds.push_back(measure_transport_seconds(
        planner, metrics, WireMode::kBinary, kConcurrency, kRequests));
    if (line_seconds.back() <= 0.0 || binary_seconds.back() <= 0.0) {
      std::fprintf(stderr, "transport-gate: FAIL — no socketpair\n");
      return 1;
    }
  }
  const auto median_throughput = [](std::vector<double> seconds) {
    std::sort(seconds.begin(), seconds.end());
    return static_cast<double>(kRequests) / seconds[seconds.size() / 2];
  };
  const double line_rps = median_throughput(line_seconds);
  const double binary_rps = median_throughput(binary_seconds);
  std::printf(
      "transport-gate: line-json %.0f req/s, binary %.0f req/s (%.2fx) at "
      "concurrency %zu, median of %d runs each\n",
      line_rps, binary_rps, binary_rps / line_rps, kConcurrency, kRounds);
  if (binary_rps < 0.85 * line_rps) {
    std::fprintf(stderr,
                 "transport-gate: FAIL — binary framing is slower than the "
                 "line protocol it replaces\n");
    return 1;
  }
  return 0;
}

#endif  // __unix__

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--transport-gate") {
#ifdef __unix__
      return run_transport_gate();
#else
      std::printf("transport-gate: POSIX-only, skipping\n");
      return 0;
#endif
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
