// pglb_loadgen — replay a deterministic planning-request mix against the
// service and report throughput, latency percentiles, and the profile-cache
// hit rate.
//
//   pglb_loadgen --requests=1000 --threads=4                 # in-process
//   pglb_loadgen --requests=1000 --threads=4 --server=./pglb_serve
//
// The mix cycles over --distinct combinations of (cluster, app, graph), so a
// long run is dominated by repeated requests — the service's intended
// traffic shape — and the cache hit rate converges to 1 - distinct/requests.
// Exits non-zero if any request fails with an "error" status.  Typed
// "timeout"/"overloaded" responses and degraded plans are resilience
// behaviour, not failures — they are counted and reported separately.
//
// Resilience knobs (docs/ROBUSTNESS.md): --timeout-ms stamps a per-request
// deadline on every request; --shed turns on admission control (in-process
// and --server mode both).
//
// Fleet mode (docs/FLEET.md): --router=K spawns K `pglb_serve --listen`
// backends (binary from --server), routes the same mix through an in-process
// fleet Router with hedging and health probes, KILLS one backend mid-run and
// restarts it, and reports per-backend routing counts and cache hit rates on
// top of the usual tallies.  Typed failover means the kill must produce zero
// "error" responses — the run still exits 0.
//
//   pglb_loadgen --requests=200 --router=3 --server=./pglb_serve --scale=0.004
//
// The kill/restart schedule is configurable: --kill-at=P / --restart-at=P
// (percent of the run; outside (0,100) disables that event), and
// --kill-mode=term downgrades the mid-run SIGKILL to a SIGTERM — the graceful
// drain, under which a backend with --snapshot-dir (below) writes its warm
// snapshot on the way out.  --wave=QPS
// paces arrivals on a half-sine "diurnal" wave peaking at QPS instead of the
// closed loop, and --churn gives every request a unique out-of-coverage
// alpha (a guaranteed profile miss — sustained planning work).
//
// Autoscale mode (docs/AUTOSCALE.md): --autoscale runs the closed-loop
// Autoscaler against the spawned fleet — scale-ups spawn extra backends on
// the next ports, drains SIGTERM them — and the run only exits 0 if the
// fleet scaled up at least once, drained back to the floor after the wave,
// and produced a populated (cost, p99) Pareto frontier, with zero "error"
// responses throughout:
//
//   pglb_loadgen --requests=96 --router=1 --server=./pglb_serve
//     --autoscale --wave=60 --churn --max-replicas=3
//
// Chaos mode (docs/CHAOS.md): --chaos=SCENARIO (fleet mode only) spawns the
// `pglb_chaos` fault-injection proxy between the router and its replicas and
// points every TcpBackend at the proxy's ports.  It refuses a scheduled
// restart (a restarted replica would bypass the proxy), so pass
// --restart-at=0; a kill alone is fine.  The scenario uses the
// netfault grammar (util/netfault.hpp); --chaos-seed seeds its RNG chains and
// --chaos-proxy names the binary (default ./pglb_chaos).  After the run the
// proxy's control endpoint is queried and a parseable per-rule summary is
// printed:
//
//   chaos rule[0] blackhole@from:300:1100%route:0 conns=1 events=42
//   chaos typed failures: errors=0 timeouts=0 overloaded=0
//
// --plans-out=FILE writes every response line, in request order, to FILE —
// the chaos_drill gate diffs that file across chaos and no-chaos runs to
// prove the plans stayed byte-identical under partition.
//
// Mutate mode (docs/DYNAMIC.md): --mutate=B streams B deterministic mutation
// batches against a delta base instead of the plan mix — in-process by
// default, or through a spawned fleet with --router=K (delta requests
// rendezvous on the base name, so the whole stream lands on one replica).
// The client keeps a LiveGraph mirror and cross-checks the server's reported
// live counts after every batch (desync = hard failure).  After the stream
// it forces a re-profile of the base and creates a from-scratch base of the
// mutated graph, then compares the two responses byte-for-byte (plan
// portion) and digest-for-digest (assignment) — the dynamic_drill
// equivalence gate.  Parseable output:
//
//   mutate reprofiles: R
//   mutate profile cells: N
//   mutate equivalence: ok
//
// Knobs: --mutate-edits=E (ops per batch), --mutate-vertices=V (base graph
// size), --mutate-seed=S, --reprofile=auto|force|never, --drift-churn=X,
// --drift-hist=Y, --algorithm=KIND.  --plans-out works here too — the drill
// replays the stream at several PGLB_THREADS settings and diffs the files.
//
// Durable warm state (docs/PERSIST.md): --snapshot-dir=D hands each spawned
// backend `--snapshot-dir=D/<tag>` so a SIGTERM'd backend snapshots its
// profile cache and its restart restores it warm.  When the kill drill
// restarts b0, the run prints a parseable `post-restart b0 cache:` line with
// the hits/misses b0 accumulated SINCE the restart — the warm-restart gate
// compares that line across a cold and a warm run.  --warm-limit=N (default
// 0 = off, keeping existing gates byte-stable) adds the router-driven peer
// warming pass after every autoscale scale-up or rejoin.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/proxy_suite.hpp"
#include "dynamic/mutation.hpp"
#include "fleet/replica_fleet.hpp"
#include "gen/powerlaw.hpp"
#include "obs/registry.hpp"
#include "partition/factory.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/portfile.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

#ifdef __unix__
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <ext/stdio_filebuf.h>
#endif

using namespace pglb;

namespace {

/// The fixed request mix: combo i cycles clusters fastest, then apps, then
/// graph sizes, covering the paper's Case 1-3 cluster shapes.
PlanRequest request_for(std::size_t combo, std::size_t sequence) {
  static const std::vector<std::vector<std::string>> kClusters = {
      {"xeon_server_s", "xeon_server_l"},
      {"m4.2xlarge", "c4.2xlarge"},
      {"c4.xlarge", "c4.2xlarge", "c4.4xlarge", "c4.8xlarge"},
      {"m4.2xlarge", "c4.2xlarge", "r3.2xlarge"},
  };
  static const std::vector<AppKind> kApps = {
      AppKind::kPageRank, AppKind::kColoring, AppKind::kConnectedComponents,
      AppKind::kTriangleCount};
  static const std::vector<std::pair<std::uint64_t, std::uint64_t>> kGraphs = {
      {1'000'000, 10'000'000}, {4'847'571, 68'993'773}, {3'072'441, 117'185'083}};

  PlanRequest request;
  request.id = "load-" + std::to_string(sequence);
  request.machines = kClusters[combo % kClusters.size()];
  request.app = kApps[(combo / kClusters.size()) % kApps.size()];
  const auto& [vertices, edges] =
      kGraphs[(combo / (kClusters.size() * kApps.size())) % kGraphs.size()];
  request.vertices = vertices;
  request.edges = edges;
  return request;
}

struct LoadReport {
  std::vector<double> latencies_s;
  std::size_t failed = 0;      ///< "error" status responses only
  std::size_t degraded = 0;    ///< ok responses with a non-empty degraded tag
  std::size_t timeouts = 0;    ///< typed "timeout" responses
  std::size_t overloaded = 0;  ///< typed "overloaded" responses (shed)
  double wall_seconds = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_hit_rate = 0.0;
  /// Per-service counters (requests_total, profile_cache_*); in-process only.
  std::vector<std::pair<std::string, std::uint64_t>> service_counters;
  /// Fleet mode (--router): per-backend "name: routed / hits / misses" rows
  /// plus the route-latency distribution as occupied buckets.
  struct BackendReport {
    std::string name;
    std::uint64_t routed = 0;
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    bool alive = true;
  };
  std::vector<BackendReport> backends;
  std::vector<LatencyBucket> route_buckets;
  /// Kill drill: b0 was killed and restarted, so backends[0]'s cache stats
  /// cover only its post-restart life (the warm-restart gate's signal).
  bool b0_restarted = false;
  /// Autoscale mode: convergence evidence for the wave gate.
  bool autoscaled = false;
  std::uint64_t scale_ups = 0;
  std::uint64_t drains = 0;
  std::size_t final_replicas = 0;
  std::size_t floor_replicas = 0;
  std::size_t frontier_size = 0;  ///< machines on the live (cost, p99) frontier
  /// Chaos mode: response lines in request order (--plans-out) and the final
  /// per-rule injection counters from the proxy's control endpoint.
  std::vector<std::string> responses;
  std::string chaos_metrics_json;
};

/// Nonzero counter deltas of the process-wide registry across the run — what
/// the planner's pipeline actually did (proxy generation, profiling fan-out,
/// pool usage) as opposed to per-request service accounting.
std::vector<std::pair<std::string, std::uint64_t>> counter_deltas(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::vector<std::pair<std::string, std::uint64_t>> deltas;
  for (const auto& [name, value] : after) {
    std::uint64_t prior = 0;
    for (const auto& [b_name, b_value] : before) {
      if (b_name == name) {
        prior = b_value;
        break;
      }
    }
    if (value > prior) deltas.emplace_back(name, value - prior);
  }
  return deltas;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// Fold one response into the per-outcome tallies.  `first_error` guards the
/// one-time diagnostic print of the first hard failure.
void tally_response(const PlanResponse& response, const std::string& line,
                    std::atomic<std::size_t>& failed,
                    std::atomic<std::size_t>& degraded,
                    std::atomic<std::size_t>& timeouts,
                    std::atomic<std::size_t>& overloaded,
                    std::atomic<bool>& first_error) {
  switch (response.status) {
    case PlanStatus::kOk:
      if (!response.degraded.empty()) degraded.fetch_add(1);
      break;
    case PlanStatus::kTimeout:
      timeouts.fetch_add(1);
      break;
    case PlanStatus::kOverloaded:
      overloaded.fetch_add(1);
      break;
    case PlanStatus::kError:
      if (failed.fetch_add(1) == 0 && !first_error.exchange(true)) {
        std::cerr << "first failure: " << line << "\n";
      }
      break;
  }
}

LoadReport run_in_process(std::size_t requests, int threads, std::size_t distinct,
                          std::uint64_t timeout_ms,
                          const PlannerOptions& planner_options,
                          const ServerOptions& server_options) {
  ServiceMetrics metrics;
  Planner planner(planner_options, &metrics);
  PlanServer server(planner, metrics, server_options);

  LoadReport report;
  report.latencies_s.resize(requests);
  std::atomic<std::size_t> failed{0}, degraded{0}, timeouts{0}, overloaded{0};
  std::atomic<bool> first_error{false};
  std::atomic<std::size_t> next{0};

  const Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests) return;
        PlanRequest request = request_for(i % distinct, i);
        if (timeout_ms > 0) request.timeout_ms = timeout_ms;
        const std::string line = serialize_request(request);
        const Stopwatch timer;
        const std::string response_line = server.submit(line).get();
        report.latencies_s[i] = timer.seconds();
        const PlanResponse response = parse_plan_response(response_line);
        tally_response(response, response_line, failed, degraded, timeouts,
                       overloaded, first_error);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  report.wall_seconds = wall.seconds();
  report.failed = failed.load();
  report.degraded = degraded.load();
  report.timeouts = timeouts.load();
  report.overloaded = overloaded.load();

  const ProfileCacheStats cache = planner.cache_stats();
  report.cache_hits = static_cast<double>(cache.hits);
  report.cache_misses = static_cast<double>(cache.misses);
  report.cache_hit_rate = cache.hit_rate();
  report.service_counters = metrics.registry().counters();
  return report;
}

// --- mutate mode (docs/DYNAMIC.md) ------------------------------------------

struct MutateOptions {
  std::size_t batches = 0;        ///< 0 = mutate mode off
  std::size_t edits = 8;          ///< mutations per batch
  VertexId base_vertices = 2048;  ///< base graph size (power law, alpha 2.1)
  std::uint64_t seed = 42;        ///< graph, stream, and partition seed
  std::string base = "dyn0";
  std::optional<ReprofileMode> reprofile;
  std::optional<double> drift_churn;
  std::optional<double> drift_hist;
  std::optional<PartitionerKind> algorithm;
};

struct MutateReport {
  std::vector<std::string> responses;  ///< in request order (--plans-out)
  std::size_t failed = 0;              ///< non-ok responses + desyncs
  std::size_t reprofiles = 0;          ///< update batches that re-ran CCR
  std::uint64_t profile_cells = 0;     ///< filled by the driver (per mode)
  bool equivalence_ok = false;
  std::string detail;                  ///< first failure diagnostic
};

/// Stream the seeded mutation mix through `send` (one request line in, one
/// response line out — PlanServer::submit or Router::route), keeping a
/// client-side LiveGraph mirror, then run the incremental-vs-scratch
/// equivalence check.  Sequential by design: deltas to one base are totally
/// ordered server-side anyway, and a deterministic send order is what makes
/// the --plans-out file comparable across thread counts.
MutateReport run_mutate(const std::function<std::string(const std::string&)>& send,
                        const MutateOptions& mutate) {
  MutateReport report;
  dynamic::LiveGraph mirror;

  // One round trip: send, tally, parse the delta block, and cross-check the
  // server's live counts against the mirror — a mismatch means the two sides
  // diverged and every later determinism claim is void, so it is a hard
  // failure, not a tolerated degradation.
  const auto roundtrip =
      [&](const PlanRequest& request,
          bool count_reprofile) -> std::optional<DeltaInfo> {
    const std::string line = send(serialize_request(request));
    report.responses.push_back(line);
    const PlanResponse response = parse_plan_response(line);
    if (response.status != PlanStatus::kOk) {
      ++report.failed;
      if (report.detail.empty()) report.detail = line;
      return std::nullopt;
    }
    std::optional<DeltaInfo> delta = parse_delta_block(line);
    if (!delta) {
      ++report.failed;
      if (report.detail.empty()) report.detail = "missing delta block: " + line;
      return std::nullopt;
    }
    if (delta->live_edges != mirror.live_edge_count() ||
        delta->live_vertices != mirror.live_vertex_count()) {
      ++report.failed;
      if (report.detail.empty()) {
        report.detail = "live-state desync on id=" + request.id + " (server " +
                        std::to_string(delta->live_vertices) + "v/" +
                        std::to_string(delta->live_edges) + "e, mirror " +
                        std::to_string(mirror.live_vertex_count()) + "v/" +
                        std::to_string(mirror.live_edge_count()) + "e)";
      }
      return std::nullopt;
    }
    if (count_reprofile && delta->reprofiled) ++report.reprofiles;
    return delta;
  };

  // Creation: the deterministic base graph as one batch of add_vertex +
  // add_edge mutations, in generator order.
  PowerLawConfig config;
  config.num_vertices = mutate.base_vertices;
  config.alpha = 2.1;
  config.seed = mutate.seed;
  const EdgeList graph = generate_powerlaw(config);

  PlanRequest create;
  create.type = RequestType::kDelta;
  create.id = "create";
  create.base = mutate.base;
  create.app = AppKind::kPageRank;
  create.machines = {"xeon_server_s", "xeon_server_l"};
  create.partitioner = mutate.algorithm;
  create.seed = mutate.seed;
  create.reprofile = mutate.reprofile;
  create.drift_churn = mutate.drift_churn;
  create.drift_hist = mutate.drift_hist;
  create.mutations.reserve(static_cast<std::size_t>(graph.num_vertices()) +
                           graph.edges().size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    create.mutations.push_back(dynamic::Mutation::add_vertex(v));
  }
  for (const Edge& edge : graph.edges()) {
    create.mutations.push_back(dynamic::Mutation::add_edge(edge.src, edge.dst));
  }
  mirror.apply(create.mutations);
  if (!roundtrip(create, false)) return report;

  // The update stream: each batch is generated against the mirror BEFORE it
  // is applied, exactly as the server will see it.
  for (std::size_t b = 0; b < mutate.batches; ++b) {
    PlanRequest update;
    update.type = RequestType::kDelta;
    update.id = "m" + std::to_string(b);
    update.base = mutate.base;
    update.reprofile = mutate.reprofile;
    update.drift_churn = mutate.drift_churn;
    update.drift_hist = mutate.drift_hist;
    update.mutations =
        dynamic::generate_mutation_batch(mirror, mutate.seed, b, mutate.edits);
    mirror.apply(update.mutations);
    if (!roundtrip(update, true)) return report;
  }

  // Equivalence gate.  Force an empty-batch re-profile of the streamed base
  // (compacts + replays through a fresh scorer state), then create a
  // from-scratch base from the mirror's survivors — alive vertices in id
  // order, live edges in slot order, the sequence compact() preserves.  The
  // two ok responses must agree byte-for-byte on the plan portion and value-
  // for-value on the assignment digest.
  PlanRequest equiv;
  equiv.type = RequestType::kDelta;
  equiv.id = "equiv";
  equiv.base = mutate.base;
  equiv.reprofile = ReprofileMode::kForce;
  const std::optional<DeltaInfo> inc = roundtrip(equiv, false);
  if (!inc) return report;
  const std::string inc_line = report.responses.back();

  PlanRequest scratch;
  scratch.type = RequestType::kDelta;
  scratch.id = "equiv";
  scratch.base = mutate.base + "__scratch";
  scratch.app = create.app;
  scratch.machines = create.machines;
  scratch.partitioner = mutate.algorithm;
  scratch.seed = mutate.seed;
  for (VertexId v = 0; v < mirror.num_vertices(); ++v) {
    if (mirror.vertex_alive(v)) {
      scratch.mutations.push_back(dynamic::Mutation::add_vertex(v));
    }
  }
  for (std::size_t i = 0; i < mirror.slot_count(); ++i) {
    if (!mirror.dead(i)) {
      scratch.mutations.push_back(
          dynamic::Mutation::add_edge(mirror.slot(i).src, mirror.slot(i).dst));
    }
  }
  // The scratch base's live counts equal the mirror's, so roundtrip's desync
  // check applies unchanged.
  const std::optional<DeltaInfo> scr = roundtrip(scratch, false);
  if (!scr) return report;
  const std::string scratch_line = report.responses.back();

  const auto plan_prefix = [](const std::string& line) {
    const std::size_t pos = line.find(",\"delta\":");
    return pos == std::string::npos ? line : line.substr(0, pos);
  };
  report.equivalence_ok = plan_prefix(inc_line) == plan_prefix(scratch_line) &&
                          inc->digest == scr->digest &&
                          inc->live_vertices == scr->live_vertices &&
                          inc->live_edges == scr->live_edges;
  if (!report.equivalence_ok && report.detail.empty()) {
    report.detail = "equivalence mismatch:\n  inc:     " + inc_line +
                    "\n  scratch: " + scratch_line;
  }
  return report;
}

/// In-process mutate driver: the PlanServer owns a DeltaPlanner, and the
/// shared ServiceMetrics counts every profile_single_machine call.
MutateReport run_mutate_in_process(const MutateOptions& mutate,
                                   const PlannerOptions& planner_options,
                                   const ServerOptions& server_options) {
  ServiceMetrics metrics;
  Planner planner(planner_options, &metrics);
  PlanServer server(planner, metrics, server_options);
  MutateReport report = run_mutate(
      [&](const std::string& line) { return server.submit(line).get(); },
      mutate);
  report.profile_cells = metrics.counter("profile_runs");
  return report;
}

#ifdef __unix__
/// Drive an external `pglb_serve` over pipes: responses come back in input
/// order, so request i's latency is send[i] -> i-th response line.
LoadReport run_against_server(const std::string& server_path, std::size_t requests,
                              int threads, std::size_t distinct, double scale,
                              std::size_t queue_capacity, std::uint64_t timeout_ms,
                              bool shed) {
  int to_child[2], from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    std::vector<std::string> args = {server_path,
                                     "--threads=" + std::to_string(threads),
                                     "--scale=" + std::to_string(scale),
                                     "--queue=" + std::to_string(queue_capacity)};
    if (shed) args.emplace_back("--shed");
    std::vector<char*> argv_child;
    argv_child.reserve(args.size() + 1);
    for (std::string& arg : args) argv_child.push_back(arg.data());
    argv_child.push_back(nullptr);
    execv(server_path.c_str(), argv_child.data());
    std::perror("execv");
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);

  __gnu_cxx::stdio_filebuf<char> out_buf(to_child[1], std::ios::out);
  __gnu_cxx::stdio_filebuf<char> in_buf(from_child[0], std::ios::in);
  std::ostream to_server(&out_buf);
  std::istream from_server(&in_buf);

  LoadReport report;
  report.latencies_s.resize(requests);
  std::vector<double> send_time(requests + 1, 0.0);

  // Windowed pipelining: keep at most 2*threads requests in flight so the
  // send timestamps stay meaningful as queueing delay, not just write time.
  // When shedding is under test the window must be able to overflow the
  // server queue (threads in service + queue_capacity waiting + extras shed).
  const std::size_t window =
      shed ? static_cast<std::size_t>(threads) + queue_capacity + 4
           : static_cast<std::size_t>(threads) * 2;
  std::mutex mutex;
  std::condition_variable received_cv;
  std::size_t received = 0;
  std::string metrics_line;

  std::atomic<std::size_t> failed{0}, degraded{0}, timeouts{0}, overloaded{0};
  std::atomic<bool> first_error{false};

  const Stopwatch wall;
  std::thread reader([&] {
    std::string line;
    std::size_t i = 0;
    while (i < requests + 1 && std::getline(from_server, line)) {
      if (i < requests) {
        double sent = 0.0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          sent = send_time[i];
        }
        report.latencies_s[i] = wall.seconds() - sent;
        const PlanResponse response = parse_plan_response(line);
        tally_response(response, line, failed, degraded, timeouts, overloaded,
                       first_error);
      } else {
        metrics_line = line;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        received = ++i;
      }
      received_cv.notify_one();
    }
  });

  for (std::size_t i = 0; i < requests; ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      received_cv.wait(lock, [&] { return i - received < window; });
      send_time[i] = wall.seconds();
    }
    PlanRequest request = request_for(i % distinct, i);
    if (timeout_ms > 0) request.timeout_ms = timeout_ms;
    to_server << serialize_request(request) << '\n' << std::flush;
  }
  PlanRequest metrics_request;
  metrics_request.type = RequestType::kMetrics;
  to_server << serialize_request(metrics_request) << '\n' << std::flush;
  out_buf.close();  // EOF -> server drains and exits

  reader.join();
  report.wall_seconds = wall.seconds();
  report.failed = failed.load();
  report.degraded = degraded.load();
  report.timeouts = timeouts.load();
  report.overloaded = overloaded.load();
  int status = 0;
  waitpid(pid, &status, 0);

  if (!metrics_line.empty()) {
    const JsonValue metrics = parse_json(metrics_line);
    if (const JsonValue* cache = metrics.find("cache")) {
      if (const JsonValue* v = cache->find("hits")) report.cache_hits = v->as_number();
      if (const JsonValue* v = cache->find("misses")) {
        report.cache_misses = v->as_number();
      }
      if (const JsonValue* v = cache->find("hit_rate")) {
        report.cache_hit_rate = v->as_number();
      }
    }
  }
  return report;
}

// --- fleet mode -------------------------------------------------------------
// The replicas, their router, and the autoscale loop come from ReplicaFleet
// (fleet/replica_fleet.hpp), the same lifecycle pglb_router uses.

/// Fleet-mode knobs beyond the basic spawn parameters: the configurable
/// kill/restart schedule, the wave arrival shape, cache churn, and the
/// autoscale convergence mode.
struct RouterRunOptions {
  std::size_t kill_at_pct = 40;     ///< SIGKILL b0 at this % of the run
  std::size_t restart_at_pct = 70;  ///< restart b0 at this % of the run
  bool kill_term = false;           ///< SIGTERM (graceful drain) instead of SIGKILL
  std::size_t warm_limit = 0;       ///< >0: peer-warm after autoscale spawns/rejoins
  double wave_peak_qps = 0.0;       ///< >0: half-sine arrival wave, else closed loop
  bool churn = false;               ///< unique out-of-coverage alpha per request
  bool autoscale = false;
  std::uint64_t autoscale_ms = 50;  ///< controller sampling cadence
  AutoscalerOptions autoscaler;     ///< min_replicas is overwritten with the floor
  WireMode wire = WireMode::kAuto;  ///< client transport (docs/WIRE.md)
  // Chaos mode (docs/CHAOS.md).  Non-empty scenario = spawn the fault proxy
  // and route every backend connection through it.
  std::string chaos_scenario;
  std::string chaos_proxy_path = "./pglb_chaos";
  std::uint64_t chaos_seed = 1;
  bool collect_responses = false;  ///< fill LoadReport::responses (--plans-out)
};

/// Fork the pglb_chaos proxy in front of `targets`.  It publishes one
/// listener port per route as <port_dir>/chaos-r<k>.port and its control
/// endpoint (answering "metrics") as <port_dir>/chaos-ctl.port.
pid_t spawn_chaos(const RouterRunOptions& run,
                  const std::vector<std::uint16_t>& targets,
                  const std::string& port_dir) {
  std::string csv;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    if (k > 0) csv.push_back(',');
    csv += std::to_string(targets[k]);
  }
  std::vector<std::string> args = {run.chaos_proxy_path,
                                   "--targets=" + csv,
                                   "--port-dir=" + port_dir,
                                   "--control-port-file=" + port_dir + "/chaos-ctl.port",
                                   "--scenario=" + run.chaos_scenario,
                                   "--seed=" + std::to_string(run.chaos_seed)};
  std::vector<char*> argv_child;
  for (std::string& arg : args) argv_child.push_back(arg.data());
  argv_child.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    execv(run.chaos_proxy_path.c_str(), argv_child.data());
    std::perror("execv pglb_chaos");
    _exit(127);
  }
  return pid;
}

/// One round-trip on the chaos control endpoint: "metrics" -> one JSON line.
std::string chaos_metrics(std::uint16_t control_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(control_port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const char command[] = "metrics\n";
  (void)!::write(fd, command, sizeof(command) - 1);
  std::string line;
  char byte = 0;
  while (::read(fd, &byte, 1) == 1 && byte != '\n') line.push_back(byte);
  ::close(fd);
  return line;
}

/// Route the mix through an in-process fleet Router over K spawned backends.
/// Backend 0 is SIGKILLed / restarted on the configured schedule — the
/// router must absorb both transitions with typed responses only.
LoadReport run_against_router(const SpawnOptions& spawn_options, std::size_t requests,
                              int threads, std::size_t distinct,
                              std::uint64_t timeout_ms, std::size_t fleet_size,
                              std::uint16_t base_port, std::uint64_t hedge_ms,
                              const RouterRunOptions& run) {
  RouterOptions options;
  options.hedge_delay_ms = hedge_ms;
  options.probe_interval_ms = 100;
  Registry router_metrics;
  ReplicaFleet fleet(spawn_options, options, run.wire, base_port, &router_metrics);
  std::cerr << ("loadgen: port-dir " + fleet.port_dir() + "\n");
  std::vector<std::uint16_t> ports = fleet.spawn_replicas(fleet_size);

  // Chaos interposition: spawn the fault proxy over the live replica ports
  // and hand the router the PROXY ports instead.  Scenario windows run on
  // the proxy's clock, which starts here — a few ms before the first
  // request, so from:<ms> offsets are effectively run-relative.  The fleet
  // reaps the proxy after the replicas, whose drain traffic flows through it.
  std::uint16_t chaos_control_port = 0;
  if (!run.chaos_scenario.empty()) {
    fleet.adopt(spawn_chaos(run, ports, fleet.port_dir()));
    for (std::size_t k = 0; k < ports.size(); ++k) {
      ports[k] = wait_port_file(
          fleet.port_dir() + "/chaos-r" + std::to_string(k) + ".port", 10'000);
    }
    chaos_control_port = wait_port_file(fleet.port_dir() + "/chaos-ctl.port", 10'000);
    std::cerr << ("loadgen: chaos proxy up (control port " +
                  std::to_string(chaos_control_port) + ")\n");
  }
  fleet.connect(ports);
  Router& router = fleet.router();

  LoadReport report;
  report.latencies_s.resize(requests);
  if (run.collect_responses) report.responses.resize(requests);
  std::atomic<std::size_t> failed{0}, degraded{0}, timeouts{0}, overloaded{0};
  std::atomic<bool> first_error{false};
  std::atomic<std::size_t> next{0};
  // A percentage outside (0, 100) maps to `requests`, which no request
  // index ever equals — the event simply never fires.
  const std::size_t kill_at =
      run.kill_at_pct > 0 && run.kill_at_pct < 100
          ? requests * run.kill_at_pct / 100
          : requests;
  const std::size_t restart_at =
      run.restart_at_pct > 0 && run.restart_at_pct < 100
          ? requests * run.restart_at_pct / 100
          : requests;
  // A request numbered after an event waits until that event has finished,
  // so the kill and the restart land at their place in the request stream
  // however fast the other clients' requests are served.
  std::mutex event_mutex;
  std::condition_variable event_done;
  bool killed = kill_at >= requests, restarted = restart_at >= requests;
  const auto await_events_before = [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(event_mutex);
    event_done.wait(lock, [&] {
      return (i <= kill_at || killed) && (i <= restart_at || restarted);
    });
  };
  const auto finish_event = [&](bool& flag) {
    {
      const std::lock_guard<std::mutex> lock(event_mutex);
      flag = true;
    }
    event_done.notify_all();
  };

  // Diurnal wave: open-loop send times along a half-sine peaking at
  // wave_peak_qps mid-run, floored at 5% of peak so the tail still drains.
  std::vector<double> send_at;
  if (run.wave_peak_qps > 0.0) {
    send_at.resize(requests);
    constexpr double kPi = 3.14159265358979323846;
    double t = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
      const double phase =
          kPi * (static_cast<double>(i) + 0.5) / static_cast<double>(requests);
      const double rate = run.wave_peak_qps * std::max(0.05, std::sin(phase));
      t += 1.0 / rate;
      send_at[i] = t;
    }
  }

  const Stopwatch wall;
  if (run.autoscale) fleet.start_autoscale(run.autoscaler, run.autoscale_ms, run.warm_limit);
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests) return;
        await_events_before(i);
        if (i == kill_at) {
          if (fleet_size > 1) {
            // Default: hard failure, not a drain — SIGKILL mid-connection.
            // The router sees BackendError, marks b0 down, and fails over.
            // --kill-mode=term sends SIGTERM instead: the graceful drain,
            // which lets a --snapshot-dir backend save its warm state.
            fleet.stop_replica(0, run.kill_term ? SIGTERM : SIGKILL);
            std::cerr << ("loadgen: " +
                          std::string(run.kill_term ? "terminated" : "killed") +
                          " backend b0 at request " + std::to_string(i) + "\n");
          }
          finish_event(killed);
        }
        if (i == restart_at) {
          if (fleet_size > 1 && fleet.pid(0) < 0) {
            // Back in the rotation at once: the restart marks b0 up instead
            // of leaving it to the prober's backoff window.
            fleet.restart_replica(0);
            report.b0_restarted = true;
            std::cerr << ("loadgen: restarted backend b0 at request " +
                          std::to_string(i) + "\n");
          }
          finish_event(restarted);
        }
        if (!send_at.empty()) {
          // Open-loop pacing: hold this slot until the wave schedule says
          // request i arrives.
          for (;;) {
            const double remain = send_at[i] - wall.seconds();
            if (remain <= 0.0) break;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(std::min(remain, 0.005)));
          }
        }
        PlanRequest request = request_for(i % distinct, i);
        if (run.churn) {
          // Each alpha is its own proxy lattice point (up to request 121),
          // so every request generates and profiles a fresh proxy —
          // sustained planning work no cache can absorb.
          request.alpha = 3.0 + 2.0 * ProxySuite::kCoverageMargin *
                                    static_cast<double>(i + 1);
        }
        if (timeout_ms > 0) request.timeout_ms = timeout_ms;
        const std::string line = serialize_request(request);
        const Stopwatch timer;
        const std::string response_line = router.route(line);
        report.latencies_s[i] = timer.seconds();
        if (run.collect_responses) report.responses[i] = response_line;
        const PlanResponse response = parse_plan_response(response_line);
        tally_response(response, response_line, failed, degraded, timeouts,
                       overloaded, first_error);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  report.wall_seconds = wall.seconds();
  report.failed = failed.load();
  report.degraded = degraded.load();
  report.timeouts = timeouts.load();
  report.overloaded = overloaded.load();

  if (run.autoscale) {
    // Convergence: the wave has passed; give the control loop time to drain
    // the extra replicas back to the floor before judging the run.
    const Stopwatch settle;
    while (settle.seconds() < 20.0) {
      if (static_cast<std::size_t>(router_metrics.gauge(
              "autoscale.replicas")) <= fleet_size) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    fleet.stop_autoscale();
    report.autoscaled = true;
    report.scale_ups = router_metrics.counter("autoscale.scale_ups");
    report.drains = router_metrics.counter("autoscale.drains");
    report.final_replicas =
        static_cast<std::size_t>(router_metrics.gauge("autoscale.replicas"));
    report.floor_replicas = fleet_size;
    const JsonValue status = parse_json(fleet.autoscaler()->status_json());
    if (const JsonValue* pareto = status.find("pareto")) {
      if (const JsonValue* frontier = pareto->find("frontier")) {
        report.frontier_size = frontier->as_array().size();
      }
    }
  }

  // Per-backend routing counts (router side) and cache stats (backend
  // side, via a metrics request — a restarted backend reports its fresh
  // cache, which is the honest number).
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    LoadReport::BackendReport backend;
    backend.name = "b" + std::to_string(k);
    backend.routed = router_metrics.counter("fleet." + backend.name + ".routed");
    backend.alive = fleet.pid(k) > 0;
    if (backend.alive) {
      try {
        auto future = router.fleet().backend(k)->submit(
            R"({"type":"metrics","id":"loadgen-final"})");
        const JsonValue metrics = parse_json(future.get());
        if (const JsonValue* cache = metrics.find("cache")) {
          if (const JsonValue* v = cache->find("hits")) {
            backend.cache_hits = v->as_number();
          }
          if (const JsonValue* v = cache->find("misses")) {
            backend.cache_misses = v->as_number();
          }
        }
      } catch (const std::exception&) {
        backend.alive = false;
      }
    }
    report.cache_hits += backend.cache_hits;
    report.cache_misses += backend.cache_misses;
    report.backends.push_back(std::move(backend));
  }
  const double cache_total = report.cache_hits + report.cache_misses;
  report.cache_hit_rate = cache_total > 0.0 ? report.cache_hits / cache_total : 0.0;
  report.route_buckets = router_metrics.stage_buckets("router.route");
  report.service_counters = router_metrics.counters();

  // The proxy's counters are final once the last response has been
  // harvested; grab them while the control endpoint is still up.
  if (chaos_control_port != 0) {
    report.chaos_metrics_json = chaos_metrics(chaos_control_port);
  }
  // Graceful this time: SIGTERM and reap, the drain contract under test in
  // the smoke runs.
  fleet.shutdown();
  return report;
}

/// Fleet-mode mutate driver: spawn K backends, route the stream through the
/// Router (delta requests rendezvous on "dyn|<base>", so the whole stream
/// pins to one replica), and sum profile_runs across every backend's metrics
/// response.  No kill schedule, no hedging: a hedged or failed-over delta
/// would land on a replica that has never seen the base and fail typed — the
/// drill wants the deterministic stream, not the failover drill.
MutateReport run_mutate_router(const SpawnOptions& spawn_options,
                               std::size_t fleet_size, std::uint16_t base_port,
                               WireMode wire, const MutateOptions& mutate) {
  RouterOptions options;
  options.hedge_delay_ms = 0;  // deltas are stateful; never hedge them
  options.probe_interval_ms = 100;
  Registry router_metrics;
  ReplicaFleet fleet(spawn_options, options, wire, base_port, &router_metrics);
  std::cerr << ("loadgen: port-dir " + fleet.port_dir() + "\n");
  fleet.connect(fleet.spawn_replicas(fleet_size));

  MutateReport report = run_mutate(
      [&](const std::string& line) { return fleet.router().route(line); }, mutate);

  // Aggregate CCR cells: each backend's service counters carry its own
  // profile_runs; the stream pinned to one replica but the scratch base may
  // rendezvous elsewhere, so sum the fleet.
  for (std::size_t k = 0; k < fleet_size; ++k) {
    try {
      auto future = fleet.router().fleet().backend(k)->submit(
          R"({"type":"metrics","id":"mutate-final"})");
      const JsonValue metrics = parse_json(future.get());
      if (const JsonValue* counters = metrics.find("counters")) {
        if (const JsonValue* v = counters->find("profile_runs")) {
          report.profile_cells +=
              static_cast<std::uint64_t>(v->as_number());
        }
      }
    } catch (const std::exception& e) {
      std::cerr << ("loadgen: metrics harvest from b" + std::to_string(k) +
                    " failed: " + e.what() + "\n");
    }
  }
  fleet.shutdown();
  return report;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    const auto requests = static_cast<std::size_t>(cli.get_int("requests", 1000));
    const int threads = static_cast<int>(cli.get_int("threads", 4));
    const auto distinct =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("distinct", 8)));
    const std::string server_path = cli.get_string("server", "");
    const auto timeout_ms = static_cast<std::uint64_t>(cli.get_int("timeout-ms", 0));
    const bool shed = cli.get_bool("shed", false);
    const auto fleet_size = static_cast<std::size_t>(cli.get_int("router", 0));
    // 0 = ephemeral backend ports via the port-file handshake (default).
    const auto base_port = static_cast<std::uint16_t>(cli.get_int("base-port", 0));
    const auto hedge_ms = static_cast<std::uint64_t>(cli.get_int("hedge-ms", 0));

    RouterRunOptions run;
    run.wire = wire_mode_from_string(cli.get_string("wire", "auto"));
    run.kill_at_pct = static_cast<std::size_t>(cli.get_int("kill-at", 40));
    run.restart_at_pct = static_cast<std::size_t>(cli.get_int("restart-at", 70));
    const std::string kill_mode = cli.get_string("kill-mode", "kill");
    if (kill_mode != "kill" && kill_mode != "term") {
      std::cerr << "pglb_loadgen: --kill-mode must be kill or term\n";
      return 2;
    }
    run.kill_term = kill_mode == "term";
    run.warm_limit = static_cast<std::size_t>(cli.get_int("warm-limit", 0));
    const std::string snapshot_dir = cli.get_string("snapshot-dir", "");
    const auto snapshot_interval_ms =
        static_cast<std::uint64_t>(cli.get_int("snapshot-interval-ms", 0));
    run.wave_peak_qps = cli.get_double("wave", 0.0);
    run.churn = cli.get_bool("churn", false);
    run.autoscale = cli.get_bool("autoscale", false);
    run.autoscale_ms = static_cast<std::uint64_t>(cli.get_int("autoscale-ms", 50));
    run.autoscaler.max_replicas =
        static_cast<std::size_t>(cli.get_int("max-replicas", 4));
    run.autoscaler.policy.policy =
        scale_policy_from_name(cli.get_string("scale-policy", "cost"));
    run.autoscaler.pressure_threshold = cli.get_double("pressure", 2.0);
    run.autoscaler.idle_threshold = cli.get_double("idle", 0.25);
    run.autoscaler.sustain_samples =
        static_cast<std::uint32_t>(cli.get_int("sustain", 2));
    run.autoscaler.idle_samples =
        static_cast<std::uint32_t>(cli.get_int("idle-samples", 5));
    run.autoscaler.cooldown_ms =
        static_cast<std::uint64_t>(cli.get_int("cooldown-ms", 500));
    run.chaos_scenario = cli.get_string("chaos", "");
    run.chaos_proxy_path = cli.get_string("chaos-proxy", "./pglb_chaos");
    run.chaos_seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed", 1));
    const std::string plans_out = cli.get_string("plans-out", "");
    run.collect_responses = !plans_out.empty();

    MutateOptions mutate;
    mutate.batches = static_cast<std::size_t>(cli.get_int("mutate", 0));
    mutate.edits = static_cast<std::size_t>(cli.get_int("mutate-edits", 8));
    mutate.base_vertices =
        static_cast<VertexId>(cli.get_int("mutate-vertices", 2048));
    mutate.seed = static_cast<std::uint64_t>(cli.get_int("mutate-seed", 42));
    mutate.base = cli.get_string("mutate-base", "dyn0");
    const std::string reprofile_name = cli.get_string("reprofile", "");
    if (!reprofile_name.empty()) {
      const auto mode = reprofile_mode_from_string(reprofile_name);
      if (!mode) {
        std::cerr << "pglb_loadgen: --reprofile must be auto, force, or never\n";
        return 2;
      }
      mutate.reprofile = *mode;
    }
    const double drift_churn = cli.get_double("drift-churn", -1.0);
    if (drift_churn >= 0.0) mutate.drift_churn = drift_churn;
    const double drift_hist = cli.get_double("drift-hist", -1.0);
    if (drift_hist >= 0.0) mutate.drift_hist = drift_hist;
    const std::string algorithm = cli.get_string("algorithm", "");
    if (!algorithm.empty()) mutate.algorithm = partitioner_from_string(algorithm);
    if (!run.chaos_scenario.empty() && fleet_size == 0) {
      std::cerr << "pglb_loadgen: --chaos needs fleet mode (--router=K)\n";
      return 2;
    }
    if (!run.chaos_scenario.empty() && run.autoscale) {
      // Autoscaled replicas spawn on fresh ports the proxy has no listener
      // for; they would connect around the chaos layer and void the drill.
      std::cerr << "pglb_loadgen: --chaos and --autoscale are incompatible\n";
      return 2;
    }
    if (!run.chaos_scenario.empty() && run.restart_at_pct > 0 &&
        run.restart_at_pct < 100) {
      // A restarted replica comes back on a fresh port the proxy has no
      // route to, so its traffic would bypass the chaos layer.
      std::cerr << "pglb_loadgen: --chaos needs --restart-at outside (0,100): "
                   "a restarted replica would bypass the chaos proxy\n";
      return 2;
    }

    PlannerOptions planner_options;
    planner_options.proxy_scale = cli.get_double("scale", 1.0 / 256.0);
    planner_options.cache_capacity = static_cast<std::size_t>(cli.get_int("cache", 64));

    ServerOptions server_options;
    server_options.threads = threads;
    server_options.queue_capacity = static_cast<std::size_t>(cli.get_int("queue", 256));
    server_options.shed_when_full = shed;

    const auto unused = cli.unused_keys();
    if (!unused.empty()) {
      std::cerr << "pglb_loadgen: unknown flag --" << unused.front() << "\n";
      return 2;
    }

    SpawnOptions spawn_options;  // fleet mode (--router=K)
    spawn_options.serve_path = server_path;
    spawn_options.threads = threads;
    spawn_options.scale = planner_options.proxy_scale;
    spawn_options.queue = server_options.queue_capacity;
    spawn_options.snapshot_dir = snapshot_dir;
    spawn_options.snapshot_interval_ms = snapshot_interval_ms;
    if (fleet_size > 0 && server_path.empty()) {
      std::cerr << "pglb_loadgen: --router needs --server=PATH to pglb_serve\n";
      return 2;
    }

    if (mutate.batches > 0) {
      if (!run.chaos_scenario.empty() || run.autoscale) {
        std::cerr << "pglb_loadgen: --mutate is incompatible with --chaos and "
                     "--autoscale\n";
        return 2;
      }
      MutateReport m;
      if (fleet_size > 0) {
#ifdef __unix__
        m = run_mutate_router(spawn_options, fleet_size, base_port, run.wire,
                              mutate);
#else
        std::cerr << "pglb_loadgen: --router mode is only available on POSIX "
                     "builds\n";
        return 2;
#endif
      } else if (!server_path.empty()) {
        std::cerr << "pglb_loadgen: --mutate runs in-process or with "
                     "--router=K, not --server pipes\n";
        return 2;
      } else {
        m = run_mutate_in_process(mutate, planner_options, server_options);
      }

      Table table({"metric", "value"});
      table.row().cell("mutate batches").cell(
          static_cast<std::uint64_t>(mutate.batches));
      table.row().cell("edits per batch").cell(
          static_cast<std::uint64_t>(mutate.edits));
      table.row().cell("base vertices").cell(
          static_cast<std::uint64_t>(mutate.base_vertices));
      table.row().cell("responses").cell(
          static_cast<std::uint64_t>(m.responses.size()));
      table.row().cell("failed").cell(static_cast<std::uint64_t>(m.failed));
      table.print(std::cout);

      // Parseable gate lines (the dynamic_drill signal).
      std::cout << "\nmutate reprofiles: " << m.reprofiles << "\n";
      std::cout << "mutate profile cells: " << m.profile_cells << "\n";
      std::cout << "mutate equivalence: "
                << (m.equivalence_ok ? "ok" : "MISMATCH") << "\n";
      if (!plans_out.empty()) {
        std::ofstream plans(plans_out, std::ios::trunc);
        for (const std::string& line : m.responses) plans << line << "\n";
        if (!plans) {
          std::cerr << "pglb_loadgen: cannot write " << plans_out << "\n";
          return 1;
        }
        std::cout << "plans written: " << plans_out << " ("
                  << m.responses.size() << " lines)\n";
      }
      if (m.failed > 0 || !m.equivalence_ok) {
        std::cerr << "pglb_loadgen: mutate run failed: "
                  << (m.detail.empty() ? "unknown" : m.detail) << "\n";
        return 1;
      }
      return 0;
    }

    const auto registry_before = global_registry().counters();

    LoadReport report;
    if (fleet_size > 0) {
#ifdef __unix__
      report = run_against_router(spawn_options, requests, threads, distinct,
                                  timeout_ms, fleet_size, base_port, hedge_ms,
                                  run);
#else
      std::cerr << "pglb_loadgen: --router mode is only available on POSIX builds\n";
      return 2;
#endif
    } else if (server_path.empty()) {
      report = run_in_process(requests, threads, distinct, timeout_ms,
                              planner_options, server_options);
    } else {
#ifdef __unix__
      report = run_against_server(server_path, requests, threads, distinct,
                                  planner_options.proxy_scale,
                                  server_options.queue_capacity, timeout_ms, shed);
#else
      std::cerr << "pglb_loadgen: --server mode is only available on POSIX builds\n";
      return 2;
#endif
    }

    std::vector<double> sorted = report.latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const double throughput =
        report.wall_seconds > 0.0 ? static_cast<double>(requests) / report.wall_seconds
                                  : 0.0;

    Table table({"metric", "value"});
    table.row().cell("requests").cell(static_cast<std::uint64_t>(requests));
    table.row().cell("failed").cell(static_cast<std::uint64_t>(report.failed));
    table.row().cell("degraded").cell(static_cast<std::uint64_t>(report.degraded));
    table.row().cell("timeouts").cell(static_cast<std::uint64_t>(report.timeouts));
    table.row().cell("overloaded").cell(static_cast<std::uint64_t>(report.overloaded));
    table.row().cell("wall seconds").cell(report.wall_seconds, 3);
    table.row().cell("throughput req/s").cell(throughput, 1);
    table.row().cell("p50 latency ms").cell(percentile(sorted, 0.50) * 1e3, 3);
    table.row().cell("p90 latency ms").cell(percentile(sorted, 0.90) * 1e3, 3);
    table.row().cell("p99 latency ms").cell(percentile(sorted, 0.99) * 1e3, 3);
    table.row().cell("cache hits").cell(report.cache_hits, 0);
    table.row().cell("cache misses").cell(report.cache_misses, 0);
    table.row().cell("cache hit rate").cell(format_percent(report.cache_hit_rate));
    if (report.autoscaled) {
      table.row().cell("scale-ups").cell(report.scale_ups);
      table.row().cell("drains").cell(report.drains);
      table.row().cell("final replicas").cell(
          static_cast<std::uint64_t>(report.final_replicas));
      table.row().cell("pareto frontier").cell(
          static_cast<std::uint64_t>(report.frontier_size));
    }
    table.print(std::cout);

    const auto deltas = counter_deltas(registry_before, global_registry().counters());
    if (!deltas.empty() || !report.service_counters.empty()) {
      Table counters({"counter", "delta"});
      std::set<std::string> listed;
      for (const auto& [name, value] : deltas) {
        counters.row().cell(name).cell(value);
        listed.insert(name);
      }
      for (const auto& [name, value] : report.service_counters) {
        // Flat legacy names get the "service." prefix; dotted names
        // (service.timeouts, planner.degraded) are already namespaced.
        const std::string label =
            name.find('.') != std::string::npos ? name : "service." + name;
        // Resilience counters are mirrored into the global registry; skip
        // the service-local copy so each counter appears once.
        if (!listed.insert(label).second) continue;
        counters.row().cell(label).cell(value);
      }
      std::cout << "\n";
      counters.print(std::cout);
    }

    if (!report.backends.empty()) {
      Table fleet({"backend", "routed", "hits", "misses", "hit rate", "state"});
      for (const LoadReport::BackendReport& backend : report.backends) {
        const double total = backend.cache_hits + backend.cache_misses;
        fleet.row()
            .cell(backend.name)
            .cell(backend.routed)
            .cell(backend.cache_hits, 0)
            .cell(backend.cache_misses, 0)
            .cell(format_percent(total > 0.0 ? backend.cache_hits / total : 0.0))
            .cell(backend.alive ? "up" : "down");
      }
      std::cout << "\n";
      fleet.print(std::cout);
    }
    if (report.b0_restarted && !report.backends.empty()) {
      // Parseable signal for the warm-restart gate: b0's counters reset at
      // the restart, so these hits/misses cover only its post-restart life.
      // A warm restart (restored snapshot) hits where a cold one misses.
      const LoadReport::BackendReport& b0 = report.backends.front();
      const double total = b0.cache_hits + b0.cache_misses;
      std::cout << "\npost-restart b0 cache: hits="
                << static_cast<std::uint64_t>(b0.cache_hits)
                << " misses=" << static_cast<std::uint64_t>(b0.cache_misses)
                << " hit_rate="
                << format_percent(total > 0.0 ? b0.cache_hits / total : 0.0)
                << "\n";
    }
    if (!report.route_buckets.empty()) {
      // Full route-latency distribution (obs satellite): occupied geometric
      // buckets as floor_us:count pairs, ascending.
      std::cout << "\nroute latency buckets:";
      for (const LatencyBucket& bucket : report.route_buckets) {
        std::cout << ' ' << static_cast<std::uint64_t>(bucket.floor_us) << ':'
                  << bucket.count;
      }
      std::cout << "\n";
    }

    if (!run.chaos_scenario.empty()) {
      // Parseable chaos summary (the chaos_drill gate's signal): one line per
      // rule with its conns/events counters, then the typed-failure tally.
      std::cout << "\nchaos scenario seed=" << run.chaos_seed << "\n";
      if (report.chaos_metrics_json.empty()) {
        std::cerr << "pglb_loadgen: chaos control endpoint unreachable\n";
        return 1;
      }
      const JsonValue chaos = parse_json(report.chaos_metrics_json);
      if (const JsonValue* rules = chaos.find("rules")) {
        const auto& array = rules->as_array();
        for (std::size_t r = 0; r < array.size(); ++r) {
          std::cout << "chaos rule[" << r << "] "
                    << array[r].find("rule")->as_string() << " conns="
                    << static_cast<std::uint64_t>(
                           array[r].find("conns")->as_number())
                    << " events="
                    << static_cast<std::uint64_t>(
                           array[r].find("events")->as_number())
                    << "\n";
        }
      }
      std::cout << "chaos typed failures: errors=" << report.failed
                << " timeouts=" << report.timeouts
                << " overloaded=" << report.overloaded << "\n";
    }
    if (!plans_out.empty()) {
      std::ofstream plans(plans_out, std::ios::trunc);
      for (const std::string& line : report.responses) plans << line << "\n";
      if (!plans) {
        std::cerr << "pglb_loadgen: cannot write " << plans_out << "\n";
        return 1;
      }
      std::cout << "plans written: " << plans_out << " ("
                << report.responses.size() << " lines)\n";
    }

    if (report.autoscaled) {
      // The convergence gate: the wave must have forced at least one
      // scale-up, the fleet must be back at the floor, and the live Pareto
      // block must be populated.
      if (report.scale_ups == 0 ||
          report.final_replicas > report.floor_replicas ||
          report.frontier_size == 0) {
        std::cerr << "pglb_loadgen: autoscale did not converge (scale_ups="
                  << report.scale_ups << ", final=" << report.final_replicas
                  << "/" << report.floor_replicas
                  << ", frontier=" << report.frontier_size << ")\n";
        return 1;
      }
    }
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "pglb_loadgen: " << e.what() << "\n";
    return 1;
  }
}
