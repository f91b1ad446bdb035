// pglb_router — front a fleet of pglb_serve backends with cache-affine
// routing, health checks, hedged retries, and failover (docs/FLEET.md).
// Speaks the same line protocol as pglb_serve: one JSON request per stdin
// line, one JSON response per stdout line, in input order, exit at EOF.
//
//   pglb_router --spawn=3 --serve=./pglb_serve --scale=0.004
//   pglb_router --backends=7601,7602,7603
//
// --spawn=K forks K `pglb_serve --listen` children and reaps them at exit;
// by default each child binds an OS-chosen ephemeral port and publishes it
// via the port-file handshake (util/portfile.hpp) in a private directory
// logged as "port-dir" — no fixed ranges, so parallel runs never collide.
// --base-port=P restores consecutive fixed ports.  --backends attaches to an
// already-running fleet.  Requests ride the negotiated binary wire transport
// (docs/WIRE.md) when a backend speaks it; --wire=line forces the legacy
// line-JSON client, --wire=binary refuses to fall back.  --line-backends=N
// spawns the first N children as line-JSON-only replicas (a mixed fleet).  A
// {"type":"metrics"} line answers from the ROUTER's registry (router.* and
// per-backend fleet.* counters, route latency with full bucket vectors) plus
// a "fleet" block with per-backend health — it never forwards, so it works
// even with every backend down.
//
// SIGINT/SIGTERM: stop reading, answer everything in flight, send the
// spawned children SIGTERM and reap them, remove the port dir, then exit 0 —
// the same graceful drain contract as pglb_serve.
//
// --autoscale (spawn mode only) runs the closed-loop autoscaler
// (docs/AUTOSCALE.md) through the fleet's control loop (fleet/replica_fleet.hpp):
// it samples fleet pressure on a cadence and acts on its decisions —
// scale-up spawns another pglb_serve on the next port (or rejoins a
// previously drained slot), drain marks a replica draining, SIGTERMs it, and
// reaps it.  Rendezvous hashing re-homes only the drained replica's keys.
// The metrics response gains an "autoscale" block with the live (cost, p99)
// Pareto frontier.
//
// Durable warm state (docs/PERSIST.md): --snapshot-dir=D hands every spawned
// child `--snapshot-dir=D/<tag>` (plus --snapshot-interval-ms=N when given),
// so a replica drained by the autoscaler snapshots its profile cache on the
// way out and its rejoin restores it warm.  After every scale-up or rejoin
// the control loop also runs a peer-warming pass: it asks the other replicas
// for their hottest profile keys, keeps the ones rendezvous hashing assigns
// to the newcomer, and replays up to --warm-limit of them (hottest first) as
// deadline-guarded plan requests against the newcomer — off the routing hot
// path.  --warm-limit=0 disables warming.

#include <condition_variable>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/replica_fleet.hpp"
#include "service/protocol.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"

#ifdef __unix__
#include <csignal>
#include <unistd.h>

using namespace pglb;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) {
  g_stop = 1;
  // Unblocks the blocking stdin read; the main loop then drains and exits.
  ::close(STDIN_FILENO);
}

void install_stop_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the read must return
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      tokens.push_back(text.substr(start));
      break;
    }
    tokens.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return tokens;
}

/// Pump stdin->stdout through router.route() on `threads` workers, emitting
/// responses in input order (the serve_stream contract).
std::size_t pump(Router& router, Registry& metrics, int threads,
                 bool metrics_buckets, const Autoscaler* autoscaler) {
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable out_cv;
  std::deque<std::pair<std::size_t, std::string>> backlog;
  std::map<std::size_t, std::string> done;
  std::size_t active = 0;  // dequeued but not yet in `done`
  bool eof = false;
  std::size_t next_out = 0;
  const auto all_drained = [&] { return eof && backlog.empty() && active == 0 && done.empty(); };

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        std::pair<std::size_t, std::string> job;
        {
          std::unique_lock<std::mutex> lock(mutex);
          work_cv.wait(lock, [&] { return !backlog.empty() || eof; });
          if (backlog.empty()) return;
          job = std::move(backlog.front());
          backlog.pop_front();
          ++active;
        }
        std::string response;
        bool is_metrics = false;
        try {
          is_metrics = parse_plan_request(job.second).type == RequestType::kMetrics;
        } catch (const std::exception&) {
        }
        if (is_metrics) {
          // Router-side view: counters, route latency (with the full bucket
          // vectors), and per-backend health.  Deliberately not forwarded.
          std::string extra = "\"fleet\":" + router.fleet_json();
          if (autoscaler != nullptr) {
            extra += ",\"autoscale\":" + autoscaler->status_json();
          }
          response = metrics.to_json(extra, metrics_buckets);
        } else {
          response = router.route(job.second);
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          done.emplace(job.first, std::move(response));
          --active;
        }
        out_cv.notify_one();
      }
    });
  }

  std::size_t sequence = 0;
  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      out_cv.wait(lock, [&] { return done.count(next_out) != 0 || all_drained(); });
      const auto it = done.find(next_out);
      if (it == done.end()) {
        if (all_drained()) return;
        continue;
      }
      const std::string line = std::move(it->second);
      done.erase(it);
      ++next_out;
      lock.unlock();
      std::cout << line << '\n' << std::flush;
      lock.lock();
    }
  });

  std::string line;
  while (!g_stop && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(mutex);
      backlog.emplace_back(sequence++, line);
    }
    work_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    eof = true;
  }
  work_cv.notify_all();
  for (std::thread& worker : workers) worker.join();
  out_cv.notify_all();  // writer may be waiting on work that will never come
  writer.join();
  return sequence;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    const auto spawn = static_cast<std::size_t>(cli.get_int("spawn", 0));
    const std::string backends_csv = cli.get_string("backends", "");
    // 0 = ephemeral ports published via the port-file handshake (default);
    // nonzero restores the old consecutive fixed range.
    const auto base_port = static_cast<std::uint16_t>(cli.get_int("base-port", 0));
    const int threads = static_cast<int>(cli.get_int("threads", 4));
    const std::string weights_csv = cli.get_string("weights", "");
    const bool metrics_buckets = cli.get_bool("metrics-buckets", true);
    const WireMode wire_mode = wire_mode_from_string(cli.get_string("wire", "auto"));
    const auto line_backends =
        static_cast<std::size_t>(cli.get_int("line-backends", 0));

    const bool autoscale = cli.get_bool("autoscale", false);
    AutoscalerOptions as_options;
    as_options.max_replicas =
        static_cast<std::size_t>(cli.get_int("max-replicas", 4));
    as_options.policy.policy =
        scale_policy_from_name(cli.get_string("scale-policy", "cost"));
    as_options.pressure_threshold = cli.get_double("pressure", 4.0);
    as_options.idle_threshold = cli.get_double("idle", 0.5);
    as_options.sustain_samples =
        static_cast<std::uint32_t>(cli.get_int("sustain", 3));
    as_options.idle_samples =
        static_cast<std::uint32_t>(cli.get_int("idle-samples", 5));
    as_options.cooldown_ms =
        static_cast<std::uint64_t>(cli.get_int("cooldown-ms", 2'000));
    as_options.base_spec = cli.get_string("base-spec", "c4.2xlarge");
    const auto autoscale_ms =
        static_cast<std::uint64_t>(cli.get_int("autoscale-ms", 200));

    SpawnOptions spawn_options;
    spawn_options.serve_path = cli.get_string("serve", "./pglb_serve");
    spawn_options.threads = static_cast<int>(cli.get_int("backend-threads", 4));
    spawn_options.scale = cli.get_double("scale", 1.0 / 256.0);
    spawn_options.queue = static_cast<std::size_t>(cli.get_int("queue", 256));
    spawn_options.shed = cli.get_bool("shed", false);
    spawn_options.snapshot_dir = cli.get_string("snapshot-dir", "");
    spawn_options.snapshot_interval_ms =
        static_cast<std::uint64_t>(cli.get_int("snapshot-interval-ms", 0));
    const auto warm_limit = static_cast<std::size_t>(cli.get_int("warm-limit", 16));

    RouterOptions options;
    options.default_deadline_ms =
        static_cast<std::uint64_t>(cli.get_int("default-timeout-ms", 30'000));
    options.hedge_delay_ms = static_cast<std::uint64_t>(cli.get_int("hedge-ms", 0));
    options.max_attempts = static_cast<std::size_t>(cli.get_int("max-attempts", 0));
    options.probe_interval_ms =
        static_cast<std::uint64_t>(cli.get_int("probe-ms", 500));

    const auto unused = cli.unused_keys();
    if (!unused.empty()) {
      std::cerr << "pglb_router: unknown flag --" << unused.front() << "\n";
      return 2;
    }
    if ((spawn == 0) == backends_csv.empty()) {
      std::cerr << "pglb_router: need exactly one of --spawn=K or --backends=p1,p2\n";
      return 2;
    }
    if (autoscale && spawn == 0) {
      std::cerr << "pglb_router: --autoscale needs --spawn (the scaler owns "
                   "the replica processes)\n";
      return 2;
    }

    std::vector<std::uint16_t> ports;
    if (spawn == 0) {
      for (const std::string& token : split_csv(backends_csv)) {
        const auto port = parse_int(token);
        if (!port || *port <= 0 || *port > 65535) {
          std::cerr << "pglb_router: bad port '" << token << "'\n";
          return 2;
        }
        ports.push_back(static_cast<std::uint16_t>(*port));
      }
    }
    std::vector<double> weights;
    if (!weights_csv.empty()) {
      for (const std::string& token : split_csv(weights_csv)) {
        const auto weight = parse_double(token);
        if (!weight || *weight <= 0.0) {
          std::cerr << "pglb_router: bad weight '" << token << "'\n";
          return 2;
        }
        weights.push_back(*weight);
      }
      if (weights.size() != (spawn > 0 ? spawn : ports.size())) {
        std::cerr << "pglb_router: --weights needs one value per backend\n";
        return 2;
      }
    }

    Registry metrics;
    // On an exception the fleet's destructor SIGKILLs and reaps its replicas.
    ReplicaFleet fleet(spawn_options, options, wire_mode, base_port, &metrics);
    if (spawn > 0) {
      // The port-dir path is unique per run: liveness checks (smoke tests)
      // pgrep for it instead of a fixed --listen port pattern.  Printed
      // before the first fork, whose children share this stderr.
      std::cerr << ("pglb_router: port-dir " + fleet.port_dir() + "\n");
      ports = fleet.spawn_replicas(spawn, line_backends);
    }
    fleet.connect(ports, weights);
    install_stop_handlers();
    // One write: spawned replicas share this stderr, and a line split across
    // writes can interleave with theirs where scripts grep for it.
    std::cerr << ("pglb_router: fronting " + std::to_string(ports.size()) + " backend(s)\n");
    if (autoscale) fleet.start_autoscale(as_options, autoscale_ms, warm_limit);

    const std::size_t served =
        pump(fleet.router(), metrics, threads, metrics_buckets, fleet.autoscaler());
    fleet.shutdown();
    std::cerr << ("pglb_router: drained after " + std::to_string(served) +
                  " request(s)\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << ("pglb_router: " + std::string(e.what()) + "\n");
    return 1;
  }
}

#else  // !__unix__

int main() {
  std::cerr << "pglb_router: only available on POSIX builds\n";
  return 2;
}

#endif
