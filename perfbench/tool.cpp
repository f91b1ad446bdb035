// perfbench_tool — the C++ half of the plan-service benchmark (run.py drives
// it).  Three jobs, all deterministic in --seed:
//
//   perfbench_tool gen --workload=W --seed=N --count=K --out=DIR
//       Write the workload's request lines (and, for delta_stream, the
//       expected live counts after every batch) before any clock starts.
//   perfbench_tool equiv --seed=N --base=B --batches=K --out=FILE
//       The delta_stream equivalence pair for base B after K batches: a
//       forced re-profile of the streamed base, then a from-scratch base
//       built from the mirror's survivors.
//   perfbench_tool ref --scale=X --proxy-seed=N < requests > responses
//       In-process Planner::plan of every plan request line — the bytes the
//       service must reproduce.
//   perfbench_tool trace --seed=N --seconds=S --scale=X --proxy-seed=N
//       Replay all three workloads' inputs in-process, wrapping spans around
//       each layer's public functions from outside, and print per-layer
//       self times and counts as one JSON line
//       {"attempted":N,"failed":M,"metrics":{name:{"value":v,"unit":u}}}.
//
// Input generation lives here (not in run.py) so the traced replay and the
// end-to-end run see identical requests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "core/drift.hpp"
#include "core/profiler.hpp"
#include "core/proxy_suite.hpp"
#include "core/time_database.hpp"
#include "dynamic/delta_planner.hpp"
#include "dynamic/mutation.hpp"
#include "engine/distributed_graph.hpp"
#include "fleet/hashing.hpp"
#include "fleet/local_backend.hpp"
#include "fleet/router.hpp"
#include "fleet/tcp_backend.hpp"
#include "gen/alpha_solver.hpp"
#include "gen/powerlaw.hpp"
#include "graph/stats.hpp"
#include "machine/app_profile.hpp"
#include "machine/catalog.hpp"
#include "machine/perf_model.hpp"
#include "partition/factory.hpp"
#include "partition/incremental.hpp"
#include "partition/metrics.hpp"
#include "partition/random_hash.hpp"
#include "partition/replication_model.hpp"
#include "service/planner.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>

using namespace pglb;

namespace {

// --- workload inputs ---------------------------------------------------------

/// The deployed suite's proxy alphas (Table II).  Generated graphs target a
/// fitted alpha in [alpha - 0.008, alpha - 0.002] of one of them, so every
/// request stays inside the suite's coverage and no on-demand proxy is
/// generated; the narrow band keeps the alpha fit's Newton iteration count,
/// and so its cost, constant per proxy.
constexpr double kProxyAlphas[] = {1.95, 2.1, 2.3};
constexpr double kAlphaBandLow = 0.008;
constexpr double kAlphaBandHigh = 0.002;
/// Above 10^6 + 1 vertices the alpha fit's degree support is capped, so
/// every fit costs the same and the mean degree alone sets the alpha.
constexpr std::uint64_t kMinVertices = 1'200'000;
constexpr std::uint64_t kMaxVertices = 4'000'000;
constexpr std::uint64_t kFitSupport = 1'000'000;

/// cold_solo repeats its app mix every kColdPeriod requests (cold_requests).
constexpr std::size_t kColdPeriod = 24;

constexpr std::size_t kHotKeys = 32;
constexpr double kZipfExponent = 1.0;

constexpr VertexId kDeltaVertices = 65'536;
/// Every base starts with exactly this many edges (the generator's first
/// ones), so creation payloads, and so peak server memory, do not vary with
/// the seed.
constexpr std::size_t kDeltaEdges = 290'000;
constexpr std::size_t kDeltaEdits = 256;
/// Churn threshold of the update stream: with 256 edits per batch over
/// ~290k edges a re-profile fires every ~23 batches.
constexpr double kDeltaChurn = 0.02;

std::vector<std::string> catalog_names() {
  std::vector<std::string> names;
  for (const MachineSpec& spec : table1_machines()) names.push_back(spec.name);
  return names;
}

std::vector<std::string> sorted_unique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out.push_back(sep);
    out += p;
  }
  return out;
}

/// Mean-degree interval whose fitted alpha lies in each proxy's band (mean
/// degree falls as alpha rises).
struct DegreeBands {
  double lo[3] = {};
  double hi[3] = {};
  DegreeBands() {
    for (int p = 0; p < 3; ++p) {
      lo[p] = powerlaw_mean_degree(kProxyAlphas[p] - kAlphaBandHigh, kFitSupport);
      hi[p] = powerlaw_mean_degree(kProxyAlphas[p] - kAlphaBandLow, kFitSupport);
    }
  }
};

/// A never-seen (vertices, edges) pair whose fitted alpha lands near proxy `p`.
std::pair<std::uint64_t, std::uint64_t> draw_graph(
    Rng& rng, const DegreeBands& bands, int p,
    std::set<std::pair<std::uint64_t, std::uint64_t>>& used) {
  for (;;) {
    const std::uint64_t v =
        kMinVertices + rng.next_below(kMaxVertices - kMinVertices + 1);
    const double degree = bands.lo[p] + rng.next_double() * (bands.hi[p] - bands.lo[p]);
    const auto e = static_cast<std::uint64_t>(std::llround(static_cast<double>(v) * degree));
    if (used.emplace(v, e).second) return {v, e};
  }
}

/// Class sets handed out so far, per (app, proxy, class count) cell.
using UsedKeys = std::map<std::string, std::set<std::string>>;

/// k distinct catalog classes whose (classes, app, proxy) profile key is new.
/// A cell whose class sets are all used starts over: its smallest cell holds
/// 28 sets and no cell is drawn more than three times per 24-request period
/// (the heavy coloring cell, of 70 sets), so a reused key is
/// hundreds of keys old, long evicted from the server's 64-entry profile
/// cache, and the request still misses.
std::vector<std::string> draw_classes(Rng& rng, std::size_t k, AppKind app, int p,
                                      UsedKeys& used) {
  std::set<std::string>& cell =
      used[std::string(to_string(app)) + "|" + std::to_string(p) + "|" + std::to_string(k)];
  std::vector<std::string> names = catalog_names();
  for (int attempt = 0;; ++attempt) {
    if (attempt == 1000) cell.clear();
    rng.shuffle(std::span<std::string>(names));
    std::vector<std::string> pick(names.begin(), names.begin() + static_cast<long>(k));
    if (cell.insert(join(sorted_unique(pick), '+')).second) return pick;
  }
}

PlanRequest plan_request(std::string id, AppKind app, std::vector<std::string> machines,
                         std::uint64_t vertices, std::uint64_t edges) {
  PlanRequest r;
  r.id = std::move(id);
  r.app = app;
  r.machines = std::move(machines);
  r.vertices = vertices;
  r.edges = edges;
  return r;
}

/// cold_solo: every request a new profile key and a new (V, E) pair, in
/// periods of kColdPeriod requests with a fixed mix in seeded order:
///  - 10 alpha-given plans (PageRank x4, CC x3, SSSP x3) from clients that
///    know their graph's alpha: only profiling cells, tens of ms; proxies
///    1.95 / 2.1 / 2.3 and 2-4 classes cycle;
///  - 9 fitted plans (PageRank, CC, SSSP x3 each) whose time is mostly the
///    alpha fit: proxies 1.95 / 2.1 alternate, 2-4 classes cycle;
///  - 2 middle plans: k-core on the 2.3 proxy (2-4 classes), triangle
///    count on the 2.1 proxy (2 classes);
///  - 3 heavy plans (coloring on the dense 1.95 proxy, 4 classes) whose
///    time is mostly profiling cells.  Coloring rather than triangle count
///    sets the tail: a triangle-count cell on the 1.95 proxy slows ~1.7x in
///    the host's slow spells, a coloring cell ~1.3x, as the alpha fit does.
/// run.py takes percentiles over whole periods, so the median always falls
/// about a fifth into the fitted block and the p90 about a fifth into the
/// heavy block, whatever the seed.  Low in a block on purpose: a shared
/// host's slow spells of a few seconds lift the upper part of each block,
/// and a quantile there would read how long the spells were, not the
/// program.  The 1.95 and 2.1 bands share one Newton iteration count, so
/// the fitted light plans and the coloring tail pay one fit cost.
std::vector<PlanRequest> cold_requests(std::uint64_t seed, std::size_t count) {
  Rng rng(hash_u64(seed, 0xC01D));
  const DegreeBands bands;
  struct Slot {
    AppKind app;
    bool alpha_given;
  };
  std::vector<Slot> period;
  for (const AppKind app : {AppKind::kPageRank, AppKind::kPageRank, AppKind::kPageRank,
                            AppKind::kPageRank, AppKind::kConnectedComponents,
                            AppKind::kConnectedComponents, AppKind::kConnectedComponents,
                            AppKind::kSssp, AppKind::kSssp, AppKind::kSssp}) {
    period.push_back({app, true});
  }
  for (const AppKind app : {AppKind::kPageRank, AppKind::kPageRank, AppKind::kPageRank,
                            AppKind::kConnectedComponents, AppKind::kConnectedComponents,
                            AppKind::kConnectedComponents, AppKind::kSssp, AppKind::kSssp,
                            AppKind::kSssp, AppKind::kKCore, AppKind::kTriangleCount,
                            AppKind::kColoring, AppKind::kColoring, AppKind::kColoring}) {
    period.push_back({app, false});
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> used_graphs;
  UsedKeys used_keys;
  std::map<std::pair<AppKind, bool>, std::size_t> seen;  // per-slot-kind request counter
  std::vector<PlanRequest> out;
  while (out.size() < count) {
    rng.shuffle(std::span<Slot>(period));
    for (const Slot& slot : period) {
      const std::size_t n = seen[{slot.app, slot.alpha_given}]++;
      int p = static_cast<int>(n % 2);  // fitted light: 1.95 / 2.1
      std::size_t k = 2 + n % 3;
      if (slot.alpha_given) {
        p = static_cast<int>(n % 3);
        k = 2 + (n / 3) % 3;
      } else if (slot.app == AppKind::kKCore) {
        p = 2;
      } else if (slot.app == AppKind::kTriangleCount) {
        p = 1;
        k = 2;
      } else if (slot.app == AppKind::kColoring) {
        p = 0;
        k = 4;
      }
      const auto [v, e] = draw_graph(rng, bands, p, used_graphs);
      PlanRequest request = plan_request("c" + std::to_string(out.size()), slot.app,
                                         draw_classes(rng, k, slot.app, p, used_keys), v, e);
      if (slot.alpha_given) {
        request.alpha = kProxyAlphas[p] - kAlphaBandHigh -
                        rng.next_double() * (kAlphaBandLow - kAlphaBandHigh);
      }
      out.push_back(std::move(request));
    }
  }
  out.resize(count);
  return out;
}

/// warm_routed's hot set: kHotKeys distinct profile keys over four
/// real-sized graphs, two near each of the 1.95 and 2.1 proxies.  The router
/// refits a full-support alpha on every request, and on these graphs every
/// refit takes the same Newton iteration count, so which keys the Zipf draw
/// favours does not move the router's cost.
std::vector<PlanRequest> hot_set(std::uint64_t seed) {
  Rng rng(hash_u64(seed, 0x4074));
  const DegreeBands bands;
  const auto apps = all_app_kinds();
  std::set<std::pair<std::uint64_t, std::uint64_t>> used_graphs;
  UsedKeys used_keys;
  std::pair<std::uint64_t, std::uint64_t> graphs[4];
  for (int g = 0; g < 4; ++g) graphs[g] = draw_graph(rng, bands, g % 2, used_graphs);
  std::vector<PlanRequest> out;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    const AppKind app = apps[i % apps.size()];
    const int p = static_cast<int>(i % 2);
    const auto [v, e] = graphs[i % 4];
    const std::size_t k = 2 + rng.next_below(3);
    out.push_back(plan_request("h" + std::to_string(i), app,
                               draw_classes(rng, k, app, p, used_keys), v, e));
  }
  return out;
}

/// Zipf(kZipfExponent) draws over a seeded ranking of the hot set.
std::vector<std::size_t> zipf_sequence(std::uint64_t seed, std::size_t count) {
  Rng rng(hash_u64(seed, 0x21BF));
  std::vector<std::size_t> rank(kHotKeys);
  for (std::size_t i = 0; i < kHotKeys; ++i) rank[i] = i;
  rng.shuffle(std::span<std::size_t>(rank));
  std::vector<double> cumulative(kHotKeys);
  double total = 0.0;
  for (std::size_t r = 0; r < kHotKeys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cumulative[r] = total;
  }
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.next_double() * total;
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
    out.push_back(rank[std::min(r, kHotKeys - 1)]);
  }
  return out;
}

std::string with_id(PlanRequest request, std::string id) {
  request.id = std::move(id);
  return serialize_request(request);
}

// --- delta_stream: the client-side mirror ------------------------------------

/// LiveGraph semantics (insertion-ordered slots, removal tombstones the first
/// live slot of a pair, add_edge revives endpoints, remove_vertex drops its
/// incident edges) with O(1) random picks, so the mutation stream costs
/// O(edits) per batch instead of dynamic::generate_mutation_batch's O(|E|).
class Mirror {
 public:
  void apply(const dynamic::Mutation& m) {
    using dynamic::MutationOp;
    switch (m.op) {
      case MutationOp::kAddEdge: {
        revive(m.src);
        revive(m.dst);
        const std::size_t slot = slots_.size();
        slots_.push_back(Edge{m.src, m.dst});
        dead_.push_back(0);
        index_[key(m.src, m.dst)].push_back(slot);
        incident_[m.src].push_back(slot);
        if (m.dst != m.src) incident_[m.dst].push_back(slot);
        live_pos_.push_back(live_.size());
        live_.push_back(slot);
        break;
      }
      case MutationOp::kRemoveEdge: {
        auto& slots = index_.at(key(m.src, m.dst));
        const std::size_t slot = slots.front();
        slots.erase(slots.begin());
        if (slots.empty()) index_.erase(key(m.src, m.dst));
        kill(slot);
        break;
      }
      case MutationOp::kAddVertex:
        revive(m.src);
        break;
      case MutationOp::kRemoveVertex: {
        alive_[m.src] = 0;
        --live_vertices_;
        for (const std::size_t slot : incident_[m.src]) {
          if (dead_[slot] != 0) continue;
          const Edge& e = slots_[slot];
          auto& slots = index_.at(key(e.src, e.dst));
          slots.erase(std::find(slots.begin(), slots.end(), slot));
          if (slots.empty()) index_.erase(key(e.src, e.dst));
          kill(slot);
        }
        break;
      }
    }
  }

  /// One seeded batch, applied to the mirror as it is generated so every
  /// mutation is valid at its point in the batch.  The kinds follow
  /// dynamic::generate_mutation_batch (add_edge with a quarter aimed at a
  /// low-id hub range, remove_edge, add_vertex, remove_vertex of a live
  /// vertex of degree <= 2), but adds and removals balance — 45% / 43% /
  /// 6% / 6% — so the live graph, and the O(|E|) share of a batch, stays
  /// the same size however many batches a run gets through.
  std::vector<dynamic::Mutation> generate(Rng& rng, std::size_t edits) {
    using dynamic::Mutation;
    std::vector<Mutation> batch;
    batch.reserve(edits);
    const auto emit = [&](Mutation m) {
      apply(m);
      batch.push_back(m);
    };
    const auto add_edge = [&] {
      const VertexId space = num_vertices_;
      const VertexId hub_range = std::max<VertexId>(1, space / 8);
      VertexId src = 0, dst = 0;
      do {
        src = static_cast<VertexId>(rng.next_below(space));
        dst = rng.next_below(4) == 0 ? static_cast<VertexId>(rng.next_below(hub_range))
                                     : static_cast<VertexId>(rng.next_below(space));
      } while (src == dst);
      emit(Mutation::add_edge(src, dst));
    };
    for (std::size_t k = 0; k < edits; ++k) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 45 || live_.empty()) {
        add_edge();
      } else if (roll < 88) {
        const Edge e = slots_[live_[rng.next_below(live_.size())]];
        emit(Mutation::remove_edge(e.src, e.dst));
      } else if (roll < 94) {
        emit(Mutation::add_vertex(num_vertices_));
      } else {
        bool emitted = false;
        for (int probe = 0; probe < 64 && !emitted; ++probe) {
          const auto v = static_cast<VertexId>(rng.next_below(num_vertices_));
          if (alive_[v] == 0 || live_degree_at_most(v, 2) == false) continue;
          emit(Mutation::remove_vertex(v));
          emitted = true;
        }
        if (!emitted) add_edge();
      }
    }
    return batch;
  }

  std::uint64_t live_vertices() const noexcept { return live_vertices_; }
  std::uint64_t live_edges() const noexcept { return live_.size(); }

  /// The from-scratch twin of the streamed base: alive vertices in id
  /// order, then live edges in slot order (what compact() preserves).
  std::vector<dynamic::Mutation> survivors() const {
    std::vector<dynamic::Mutation> out;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      if (alive_[v] != 0) out.push_back(dynamic::Mutation::add_vertex(v));
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (dead_[i] == 0) out.push_back(dynamic::Mutation::add_edge(slots_[i].src, slots_[i].dst));
    }
    return out;
  }

 private:
  static std::uint64_t key(VertexId src, VertexId dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  void revive(VertexId v) {
    if (v >= num_vertices_) {
      num_vertices_ = v + 1;
      alive_.resize(num_vertices_, 0);
      incident_.resize(num_vertices_);
    }
    if (alive_[v] == 0) {
      alive_[v] = 1;
      ++live_vertices_;
    }
  }
  void kill(std::size_t slot) {
    dead_[slot] = 1;
    const std::size_t pos = live_pos_[slot];
    const std::size_t last = live_.back();
    live_[pos] = last;
    live_pos_[last] = pos;
    live_.pop_back();
  }
  bool live_degree_at_most(VertexId v, std::size_t limit) const {
    std::size_t degree = 0;
    for (const std::size_t slot : incident_[v]) {
      if (dead_[slot] == 0 && ++degree > limit) return false;
    }
    return true;
  }

  std::vector<Edge> slots_;
  std::vector<std::uint8_t> dead_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  std::vector<std::vector<std::size_t>> incident_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::size_t> live_;      ///< live slots, unordered
  std::vector<std::size_t> live_pos_;  ///< slot -> index in live_
  VertexId num_vertices_ = 0;
  std::uint64_t live_vertices_ = 0;
};

struct DeltaBaseSpec {
  const char* name;
  AppKind app;
  std::vector<std::string> machines;
};

/// Two bases with different (app, machines), so their profile keys differ
/// and one base's re-profile never invalidates the other's reads.
std::vector<DeltaBaseSpec> delta_bases() {
  return {{"b0", AppKind::kPageRank, {"m4.2xlarge", "c4.2xlarge"}},
          {"b1", AppKind::kConnectedComponents, {"xeon_server_s", "xeon_server_l"}}};
}

/// The base graph of one delta base plus its seeded update stream.
struct DeltaStream {
  DeltaBaseSpec spec;
  std::uint64_t seed = 0;
  Mirror mirror;
  Rng rng;
  double read_alpha = 0.0;  ///< alpha the creation plan pins (plan reads reuse it)

  DeltaStream(DeltaBaseSpec s, std::uint64_t workload_seed, std::size_t index)
      : spec(std::move(s)),
        // The protocol carries numbers as doubles: keep the seed below 2^53.
        seed(hash_u64(workload_seed, 0xDE17A + index) >> 11),
        rng(hash_u64(seed, 0x57EA)) {}

  std::string creation_line() {
    PowerLawConfig config;
    config.num_vertices = kDeltaVertices;
    config.alpha = 2.1;
    config.seed = seed;
    EdgeList graph = generate_powerlaw(config);
    while (graph.num_edges() < kDeltaEdges) {  // redraw the rare sparse graph
      ++config.seed;
      graph = generate_powerlaw(config);
    }
    PlanRequest create;
    create.type = RequestType::kDelta;
    create.id = std::string(spec.name) + "-create";
    create.base = spec.name;
    create.app = spec.app;
    create.machines = spec.machines;
    create.seed = seed;
    create.mutations.reserve(graph.num_vertices() + kDeltaEdges);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      create.mutations.push_back(dynamic::Mutation::add_vertex(v));
    }
    for (const Edge& e : graph.edges().first(kDeltaEdges)) {
      create.mutations.push_back(dynamic::Mutation::add_edge(e.src, e.dst));
    }
    for (const auto& m : create.mutations) mirror.apply(m);
    read_alpha = fit_alpha_clamped(static_cast<VertexId>(mirror.live_vertices()),
                                   mirror.live_edges());
    return serialize_request(create);
  }

  PlanRequest next_update(std::size_t index) {
    PlanRequest update;
    update.type = RequestType::kDelta;
    update.id = std::string(spec.name) + "-m" + std::to_string(index);
    update.base = spec.name;
    update.reprofile = ReprofileMode::kAuto;
    update.drift_churn = kDeltaChurn;
    update.mutations = mirror.generate(rng, kDeltaEdits);
    return update;
  }

  /// The plan read that follows a batch: same app and machines, the pinned
  /// alpha (no fit), the live size for the makespan estimate.
  PlanRequest read_request(std::size_t index) const {
    PlanRequest read = plan_request(std::string(spec.name) + "-r" + std::to_string(index),
                                    spec.app, spec.machines, mirror.live_vertices(),
                                    mirror.live_edges());
    read.alpha = read_alpha;
    return read;
  }
};

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

int cmd_gen(const Cli& cli) {
  const std::string workload = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto count = static_cast<std::size_t>(cli.get_int("count", 100));
  const std::string out = cli.get_string("out", ".");
  if (workload == "cold_solo") {
    std::vector<std::string> lines;
    for (const PlanRequest& r : cold_requests(seed, count)) lines.push_back(serialize_request(r));
    write_lines(out + "/requests.jsonl", lines);
  } else if (workload == "warm_routed") {
    const std::vector<PlanRequest> hot = hot_set(seed);
    std::vector<std::string> hot_lines, lines;
    for (const PlanRequest& r : hot) hot_lines.push_back(serialize_request(r));
    const auto sequence = zipf_sequence(seed, count);
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      lines.push_back(with_id(hot[sequence[i]], "w" + std::to_string(i) + "-h" +
                                                    std::to_string(sequence[i])));
    }
    write_lines(out + "/hot.jsonl", hot_lines);
    write_lines(out + "/requests.jsonl", lines);
  } else if (workload == "delta_stream") {
    const auto bases = delta_bases();
    for (std::size_t b = 0; b < bases.size(); ++b) {
      DeltaStream stream(bases[b], seed, b);
      const std::string tag = out + "/" + bases[b].name;
      write_lines(tag + "_create.jsonl", {stream.creation_line()});
      std::vector<std::string> updates, reads;
      // Line 0: live counts after creation; line i + 1: after update i.
      std::vector<std::string> expect{std::to_string(stream.mirror.live_vertices()) + " " +
                                      std::to_string(stream.mirror.live_edges())};
      for (std::size_t i = 0; i < count; ++i) {
        updates.push_back(serialize_request(stream.next_update(i)));
        reads.push_back(serialize_request(stream.read_request(i)));
        expect.push_back(std::to_string(stream.mirror.live_vertices()) + " " +
                         std::to_string(stream.mirror.live_edges()));
      }
      write_lines(tag + "_updates.jsonl", updates);
      write_lines(tag + "_reads.jsonl", reads);
      write_lines(tag + "_expect.txt", expect);
    }
  } else {
    std::cerr << "perfbench_tool gen: unknown --workload '" << workload << "'\n";
    return 2;
  }
  return 0;
}

/// Replays `batches` updates of base `name` against a fresh mirror, then
/// writes the forced re-profile request and the from-scratch creation.
int cmd_equiv(const Cli& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string name = cli.get_string("base", "b0");
  const auto batches = static_cast<std::size_t>(cli.get_int("batches", 0));
  const std::string out = cli.get_string("out", "equiv.jsonl");
  const auto bases = delta_bases();
  for (std::size_t b = 0; b < bases.size(); ++b) {
    if (name != bases[b].name) continue;
    DeltaStream stream(bases[b], seed, b);
    stream.creation_line();
    for (std::size_t i = 0; i < batches; ++i) stream.next_update(i);
    PlanRequest force;
    force.type = RequestType::kDelta;
    force.id = name + "-equiv";
    force.base = name;
    force.reprofile = ReprofileMode::kForce;
    PlanRequest scratch;
    scratch.type = RequestType::kDelta;
    scratch.id = name + "-equiv";
    scratch.base = name + "__scratch";
    scratch.app = stream.spec.app;
    scratch.machines = stream.spec.machines;
    scratch.seed = stream.seed;
    scratch.mutations = stream.mirror.survivors();
    write_lines(out, {serialize_request(force), serialize_request(scratch)});
    return 0;
  }
  std::cerr << "perfbench_tool equiv: unknown --base '" << name << "'\n";
  return 2;
}

/// Planner settings of the in-process stacks: the servers' proxy scale and
/// seed, a cache that never evicts, and an own pool of `threads`.
PlannerOptions planner_options(double scale, std::uint64_t proxy_seed, unsigned threads) {
  PlannerOptions options;
  options.proxy_scale = scale;
  options.proxy_seed = proxy_seed;
  options.cache_capacity = 4096;
  options.threads = threads;
  return options;
}

int cmd_ref(const Cli& cli) {
  Planner planner(planner_options(cli.get_double("scale", 1.0 / 256.0),
                                  static_cast<std::uint64_t>(cli.get_int("proxy-seed", 17)), 2));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << serialize_response(planner.plan(parse_plan_request(line))) << '\n';
  }
  return std::cout ? 0 : 1;
}

// --- traced replay -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Benchmark-side spans: nested begin/end with self time = duration minus
/// the time covered by child spans.  Durations are kept per span name (for
/// medians); self times also accumulate per request (for attribution).
class Tracer {
 public:
  void begin(std::string name) {
    stack_.push_back(Open{std::move(name), Clock::now(), 0.0});
  }

  double end() {
    Open open = std::move(stack_.back());
    stack_.pop_back();
    const double duration = seconds_since(open.start);
    const double self = duration - open.children;
    if (!stack_.empty()) stack_.back().children += duration;
    durations_[open.name].push_back(duration);
    request_self_[open.name] += self;
    return duration;
  }

  /// Self times of the current request, then reset for the next one.
  std::map<std::string, double> take_request() { return std::exchange(request_self_, {}); }

  /// Every duration recorded under each span name.
  const std::map<std::string, std::vector<double>>& durations() const noexcept {
    return durations_;
  }
  void record(const std::string& name, double duration) {
    durations_[name].push_back(duration);
  }

 private:
  struct Open {
    std::string name;
    Clock::time_point start;
    double children;
  };
  std::vector<Open> stack_;
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, double> request_self_;
};

class Span {
 public:
  Span(Tracer& tracer, std::string name) : tracer_(tracer) { tracer_.begin(std::move(name)); }
  ~Span() {
    if (!ended_) tracer_.end();
  }
  double end() {
    ended_ = true;
    return tracer_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  bool ended_ = false;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::map<std::string, double>& parts) {
  double total = 0.0;
  for (const auto& [_, v] : parts) total += v;
  return total;
}

/// Per-layer metric sink: name -> (value, unit), printed as the JSON line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, vu] : values_) {
      if (out.size() > 1) out += ",";
      append_json_string(out, name);
      out += ":{\"value\":";
      append_json_number(out, vu.first);
      out += ",\"unit\":";
      append_json_string(out, vu.second);
      out += "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

struct TraceContext {
  Tracer tracer;
  Metrics metrics;
  std::uint64_t seed = 1;
  double scale = 1.0 / 256.0;
  std::uint64_t proxy_seed = 17;
  std::size_t attempted = 0;   ///< requests replayed
  std::size_t mismatches = 0;  ///< replica responses that differ from the real ones
  std::ostringstream report;  ///< human-readable attribution, to stderr

  PlannerOptions options(unsigned threads) const {
    return planner_options(scale, proxy_seed, threads);
  }
  void mismatch(const std::string& what) {
    if (mismatches++ < 3) std::cerr << "perfbench_tool trace: mismatch: " << what << "\n";
  }
};

double stat_median(const TraceContext& ctx, const std::string& name) {
  const auto it = ctx.tracer.durations().find(name);
  return it == ctx.tracer.durations().end() ? 0.0 : median(it->second);
}

/// Share of `total` covered by the named parts, in percent.
double coverage_pct(double covered, double total) {
  return total > 0.0 ? 100.0 * covered / total : 0.0;
}

/// cold_solo in-process: the same request once through Planner::plan
/// (untraced, the request time) and once decomposed into the public calls
/// Planner::plan makes on a miss, each in its own span.  The decomposed
/// response must be byte-identical to the monolithic one.
void trace_cold(TraceContext& ctx, double budget_s, const ProxySuite& suite) {
  Tracer& t = ctx.tracer;
  ServiceMetrics untraced_metrics;
  Planner untraced(ctx.options(1), &untraced_metrics);
  Planner traced(ctx.options(1));
  const auto requests = cold_requests(ctx.seed, 20 * kColdPeriod);

  struct Sample {
    double untraced_s;
    std::map<std::string, double> self;
  };
  std::vector<Sample> samples;
  std::map<AppKind, std::vector<double>> cold_plan_s;
  const auto start = Clock::now();
  for (const PlanRequest& request : requests) {
    // Whole periods only, at least two: the p90 request then falls among
    // the heavy plans exactly as in the end-to-end run.
    if (samples.size() >= 2 * kColdPeriod && samples.size() % kColdPeriod == 0 &&
        seconds_since(start) > budget_s) {
      break;
    }
    const std::string line = serialize_request(request);

    const auto u0 = Clock::now();
    const PlanRequest parsed = parse_plan_request(line);
    const auto p0 = Clock::now();
    const PlanResponse monolithic = untraced.plan(parsed);
    // Fitted requests only: with the alpha-given ones mixed in, the per-app
    // median would fall between two blocks.
    if (!parsed.alpha) cold_plan_s[parsed.app].push_back(seconds_since(p0));
    const std::string expected = serialize_response(monolithic);
    const double untraced_s = seconds_since(u0);

    std::string decomposed;
    {
      Span root(t, "request");
      PlanRequest req;
      {
        Span s(t, "service.protocol_parse");
        req = parse_plan_request(line);
      }
      double alpha = req.alpha.value_or(0.0);
      if (!req.alpha) {
        Span s(t, "gen.alpha_fit");
        alpha = fit_alpha_clamped(static_cast<VertexId>(req.vertices), req.edges);
      }
      const ProxySuite::Proxy* proxy = nullptr;
      {
        Span s(t, "gen.coverage");
        proxy = &suite.nearest(alpha);
      }
      const auto classes = sorted_unique(req.machines);
      auto entry = std::make_shared<ProfileEntry>();
      EdgeList graph{0};
      {
        Span s(t, "service.proxy_copy");
        graph = proxy->graph;
      }
      entry->proxy_alpha = proxy->alpha;
      entry->proxy_full_edges = static_cast<double>(proxy->stats.num_edges) / ctx.scale;
      entry->proxy_full_vertices = static_cast<double>(proxy->stats.num_vertices) / ctx.scale;
      {
        Span s(t, "graph.degree_histogram");
        entry->proxy_total_degree = total_degree_histogram(graph);
      }
      const std::string app = to_string(req.app);
      for (const std::string& name : classes) {
        Span cell(t, "profiler.cell." + app);
        const Cluster solo{std::vector<MachineSpec>{machine_by_name(name)}};
        EdgeList prepared{0};
        {
          Span s(t, "apps.prepare." + app);
          prepared = prepare_graph_for(req.app, graph);
        }
        WorkloadTraits traits;
        {
          Span s(t, "graph.stats");
          traits = traits_from_stats(compute_stats(prepared), ctx.scale);
        }
        PartitionAssignment assignment;
        {
          Span s(t, "partition.random_hash");
          const std::vector<double> weights{1.0};
          assignment = RandomHashPartitioner().partition(prepared, weights,
                                                         kProfilingPartitionSeed);
        }
        std::optional<DistributedGraph> dg;
        {
          Span s(t, "engine.build_distributed");
          dg.emplace(build_distributed(prepared, assignment));
        }
        double seconds = 0.0;
        {
          Span s(t, "apps.run_app." + app);
          seconds = run_app(req.app, prepared, *dg, solo, traits).report.makespan_seconds;
        }
        entry->class_times.emplace_back(name, seconds);
      }
      const std::string key =
          join(classes, '+') + "|" + app + "|" + canonical_alpha(proxy->alpha);
      {
        Span s(t, "bench.cache_import");
        traced.import_cache_entry(key, entry, 0);
      }
      req.alpha = alpha;
      PlanResponse response;
      {
        Span s(t, "service.planner");
        response = traced.plan(req);
      }
      Span s(t, "service.protocol_serialize");
      decomposed = serialize_response(response);
    }
    if (decomposed != expected) ctx.mismatch("cold decomposition of " + request.id);
    auto self = t.take_request();
    self.erase("request");
    self.erase("bench.cache_import");
    samples.push_back({untraced_s, std::move(self)});
    ++ctx.attempted;
  }

  // Per-request attribution: group cell spans into one "profiler cells" total.
  const auto cells_of = [](const std::map<std::string, double>& self) {
    double cells = 0.0;
    for (const auto& [name, v] : self) {
      if (name.rfind("profiler.", 0) == 0 || name.rfind("apps.", 0) == 0 ||
          name == "graph.stats" || name == "partition.random_hash" ||
          name == "engine.build_distributed") {
        cells += v;
      }
    }
    return cells;
  };
  double covered = 0.0, untraced_total = 0.0, traced_total = 0.0;
  for (const Sample& s : samples) {
    covered += std::min(sum(s.self), s.untraced_s);
    untraced_total += s.untraced_s;
  }
  if (const auto it = t.durations().find("request"); it != t.durations().end()) {
    for (const double d : it->second) traced_total += d;
  }
  std::vector<std::size_t> order(samples.size() - samples.size() % kColdPeriod);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return samples[a].untraced_s < samples[b].untraced_s;
  });
  const auto describe = [&](const char* label, double q) {
    const Sample& s = samples[order[static_cast<std::size_t>(q * static_cast<double>(order.size() - 1))]];
    const double fit = s.self.count("gen.alpha_fit") ? s.self.at("gen.alpha_fit") : 0.0;
    const double cells = cells_of(s.self);
    std::string top;
    double top_v = -1.0;
    for (const auto& [name, v] : s.self) {
      if (v > top_v) {
        top = name;
        top_v = v;
      }
    }
    ctx.report << "cold_solo " << label << " request (" << s.untraced_s * 1e3
               << " ms in-process): largest share " << top << " "
               << 100.0 * top_v / s.untraced_s << "%; profiler cells "
               << cells * 1e3 << " ms vs alpha fit " << fit * 1e3 << " ms\n";
  };
  describe("p50", 0.5);
  describe("p90", 0.9);

  Metrics& m = ctx.metrics;
  m.set("gen.alpha_fit_us", stat_median(ctx, "gen.alpha_fit") * 1e6, "us");
  for (const AppKind app : all_app_kinds()) {
    const std::string name = to_string(app);
    m.set("profiler.cell_ms." + name, stat_median(ctx, "profiler.cell." + name) * 1e3, "ms");
    m.set("apps.prepare_ms." + name, stat_median(ctx, "apps.prepare." + name) * 1e3, "ms");
    m.set("apps.run_app_ms." + name, stat_median(ctx, "apps.run_app." + name) * 1e3, "ms");
    m.set("service.planner_cold_ms." + name, median(cold_plan_s[app]) * 1e3, "ms");
  }
  m.set("graph.stats_ms", stat_median(ctx, "graph.stats") * 1e3, "ms");
  m.set("partition.random_hash_ms", stat_median(ctx, "partition.random_hash") * 1e3, "ms");
  m.set("engine.build_distributed_ms", stat_median(ctx, "engine.build_distributed") * 1e3, "ms");
  const double misses = static_cast<double>(untraced_metrics.counter("profile_cache_misses"));
  m.set("service.profile_runs_per_miss",
        misses > 0 ? static_cast<double>(untraced_metrics.counter("profile_runs")) / misses : 0.0,
        "ratio");
  m.set("obs.coverage_pct.cold_solo", coverage_pct(covered, untraced_total), "%");
  m.set("obs.trace_overhead_pct",
        untraced_total > 0.0 ? 100.0 * (traced_total - untraced_total) / untraced_total : 0.0,
        "%");
  ctx.report << "cold_solo: " << samples.size() << " requests, profile runs "
             << untraced_metrics.counter("profile_runs") << " over " << misses << " misses\n";
}

/// Backend decorator that records how long the wrapped backend took, so
/// Router::route's own overhead is route time minus backend time.
class TimedBackend : public Backend {
 public:
  explicit TimedBackend(std::shared_ptr<Backend> inner) : inner_(std::move(inner)) {}
  const std::string& name() const override { return inner_->name(); }
  std::future<std::string> submit(std::string line) override {
    const auto start = Clock::now();
    std::promise<std::string> done;
    try {
      done.set_value(inner_->submit(std::move(line)).get());
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    last_s_.store(seconds_since(start));
    return done.get_future();
  }
  double last_seconds() const noexcept { return last_s_.load(); }
  void reset() noexcept { last_s_.store(0.0); }

 private:
  std::shared_ptr<Backend> inner_;
  std::atomic<double> last_s_{0.0};
};

/// In-process loopback TCP listener feeding a PlanServer, one connection at
/// a time — the serving loop of pglb_serve --listen, for TcpBackend timing.
class LoopbackListener {
 public:
  explicit LoopbackListener(PlanServer& server) : server_(server) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = 0;
    socklen_t length = sizeof(address);
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0 ||
        ::listen(fd_, 4) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
      throw std::runtime_error("loopback listener: cannot bind");
    }
    port_ = ntohs(address.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int connection = ::accept(fd_, nullptr, nullptr);
        if (connection < 0) return;
        __gnu_cxx::stdio_filebuf<char> out_buf(::dup(connection), std::ios::out);
        std::ostream out(&out_buf);
        server_.serve_fd(connection, out);
        ::close(connection);
      }
    });
  }
  ~LoopbackListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;
  std::uint16_t port() const noexcept { return port_; }

 private:
  PlanServer& server_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// warm_routed in-process: Router over two LocalBackends (untraced request
/// time), then the same request through each fleet/service layer's public
/// functions.  Layers inside Router::route and PlanServer are attributed by
/// subtracting the separately timed calls from the enclosing one.
void trace_warm(TraceContext& ctx, double budget_s) {
  Tracer& t = ctx.tracer;
  ServerOptions server_options;
  server_options.threads = 2;
  RouterOptions router_options;
  router_options.probe_interval_ms = 0;
  Registry router_metrics;
  Router router(router_options, &router_metrics);
  std::vector<std::shared_ptr<LocalBackend>> locals;
  std::vector<std::shared_ptr<TimedBackend>> timed;
  std::vector<std::string> names;
  for (int b = 0; b < 2; ++b) {
    locals.push_back(std::make_shared<LocalBackend>("b" + std::to_string(b), ctx.options(1),
                                                    server_options));
    timed.push_back(std::make_shared<TimedBackend>(locals.back()));
    router.add_backend(timed.back());
    names.push_back(locals.back()->name());
  }
  ServiceMetrics direct_metrics;
  Planner direct(ctx.options(1), &direct_metrics);
  PlanServer direct_server(direct, direct_metrics, server_options);
  LoopbackListener listener(direct_server);
  TcpBackend tcp("t0", listener.port());

  // Pre-warm every replica directly, on the backend Router::route ranks
  // first; the key comes from the alpha-given form so nothing refits per key.
  const auto hot = hot_set(ctx.seed);
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> fits;
  for (const PlanRequest& r : hot) {
    const std::string line = serialize_request(r);
    auto [it, fresh] = fits.try_emplace({r.vertices, r.edges}, 0.0);
    if (fresh) it->second = fit_alpha_clamped(static_cast<VertexId>(r.vertices), r.edges);
    PlanRequest given = r;
    given.alpha = it->second;
    locals[rank_backends(routing_key(given), names).front()]->submit(line).get();
    tcp.submit(line).get();
  }

  const auto sequence = zipf_sequence(ctx.seed, 100'000);
  double untraced_total = 0.0, covered = 0.0;
  std::size_t count = 0;
  std::vector<double> queue_wait, route_overhead, tcp_roundtrip;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (count >= 10 && seconds_since(start) > budget_s) break;
    const std::string line = with_id(hot[sequence[i]], "w" + std::to_string(i));

    for (const auto& tb : timed) tb->reset();
    const auto u0 = Clock::now();
    const std::string routed = router.route(line);
    const double untraced_s = seconds_since(u0);
    double backend_s = 0.0;
    for (const auto& tb : timed) backend_s = std::max(backend_s, tb->last_seconds());

    PlanRequest req;
    double front = 0.0;
    {
      Span s(t, "service.protocol_parse");
      req = parse_plan_request(line);
      front += s.end();
    }
    std::string key;
    {
      Span s(t, "fleet.routing_key");
      key = routing_key(req);
      front += s.end();
    }
    {
      Span s(t, "fleet.rank_backends");
      rank_backends(key, names);
      front += s.end();
    }
    {
      // Router::route minus the backend, on the same request with its alpha
      // given, so the refit does not swamp the difference.
      PlanRequest given = req;
      given.alpha = fits.at({req.vertices, req.edges});
      const std::string given_line = serialize_request(given);
      for (const auto& tb : timed) tb->reset();
      const auto r0 = Clock::now();
      const std::string given_routed = router.route(given_line);
      const double route_s = seconds_since(r0);
      double given_backend = 0.0;
      for (const auto& tb : timed) given_backend = std::max(given_backend, tb->last_seconds());
      route_overhead.push_back(route_s - given_backend);
      if (parse_plan_response(given_routed).status != PlanStatus::kOk) {
        ctx.mismatch("routed alpha-form request of " + line);
      }
    }
    // Inside the backend: queue hand-off vs parse + plan + serialize.
    double submit_s = 0.0, inner_s = 0.0;
    std::string served;
    {
      Span s(t, "service.server_submit");
      served = direct_server.submit(line).get();
      submit_s = s.end();
    }
    {
      Span s(t, "service.protocol_parse_backend");
      req = parse_plan_request(line);
      inner_s += s.end();
    }
    PlanResponse response;
    {
      Span s(t, "service.planner");
      response = direct.plan(req);
      inner_s += s.end();
    }
    {
      Span s(t, "service.protocol_serialize");
      serialize_response(response);
      inner_s += s.end();
    }
    queue_wait.push_back(submit_s - inner_s);
    {
      Span s(t, "fleet.tcp");
      const std::string over_tcp = tcp.submit(line).get();
      tcp_roundtrip.push_back(s.end() - submit_s);
      if (over_tcp != served) ctx.mismatch("tcp response of " + line);
    }
    {
      Span s(t, "service.wire_codec");
      std::string buffer;
      wire::append_frame(buffer, wire::FrameType::kRequest, i, line);
      wire::append_frame(buffer, wire::FrameType::kResponse, i, served);
      std::size_t offset = 0;
      wire::Frame frame;
      std::string error;
      while (wire::decode_frame(buffer, &offset, &frame, &error) == wire::DecodeStatus::kFrame) {
      }
    }
    if (routed != served) ctx.mismatch("routed response of " + line);
    t.take_request();
    // Directly timed: the front-end calls (timed again outside the route)
    // plus the whole backend; the rest of Router::route is the hole.
    covered += std::min(front + backend_s, untraced_s);
    untraced_total += untraced_s;
    ++count;
    ++ctx.attempted;
  }

  std::uint64_t hits = 0, misses = 0;
  for (const auto& local : locals) {
    const ProfileCacheStats cache = local->planner().cache_stats();
    hits += cache.hits;
    misses += cache.misses;
  }
  Metrics& m = ctx.metrics;
  m.set("fleet.routing_key_us", stat_median(ctx, "fleet.routing_key") * 1e6, "us");
  m.set("fleet.rank_backends_us", stat_median(ctx, "fleet.rank_backends") * 1e6, "us");
  m.set("fleet.route_overhead_us", median(route_overhead) * 1e6, "us");
  m.set("fleet.tcp_roundtrip_us", median(tcp_roundtrip) * 1e6, "us");
  m.set("service.planner_warm_us", stat_median(ctx, "service.planner") * 1e6, "us");
  m.set("service.protocol_parse_us", stat_median(ctx, "service.protocol_parse") * 1e6, "us");
  m.set("service.protocol_serialize_us", stat_median(ctx, "service.protocol_serialize") * 1e6,
        "us");
  m.set("service.wire_codec_us", stat_median(ctx, "service.wire_codec") * 1e6, "us");
  m.set("service.server_queue_wait_us", median(queue_wait) * 1e6, "us");
  m.set("service.cache_hit_rate",
        hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
        "ratio");
  m.set("obs.coverage_pct.warm_routed", coverage_pct(covered, untraced_total), "%");
  const double per_request = count > 0 ? untraced_total / static_cast<double>(count) : 0.0;
  ctx.report << "warm_routed: " << count << " requests, " << per_request * 1e6
             << " us each in-process; routing_key " << stat_median(ctx, "fleet.routing_key") * 1e6
             << " us (" << (per_request > 0 ? 100.0 * stat_median(ctx, "fleet.routing_key") / per_request : 0.0)
             << "% of a request); cache " << hits << " hits / " << misses << " misses\n";
}

/// delta_stream in-process: DeltaPlanner::handle per batch (untraced request
/// time) next to a replica of its update path rebuilt from the public
/// LiveGraph / IncrementalState / drift / Planner calls, each in a span.
/// The replica's delta block must match the real one field for field.
void trace_delta(TraceContext& ctx, double budget_s) {
  Tracer& t = ctx.tracer;
  DeltaStream stream(delta_bases()[0], ctx.seed, 0);
  const std::string create_line = stream.creation_line();

  ServiceMetrics untraced_metrics;
  Planner untraced(ctx.options(1), &untraced_metrics);
  dynamic::DeltaPlanner deltas(untraced, {}, &untraced_metrics);
  Planner traced(ctx.options(1));

  // Creation (timed both ways; the replica only needs its state).
  PlanRequest create;
  {
    Span s(t, "service.protocol_parse_create");
    create = parse_plan_request(create_line);
  }
  const auto c0 = Clock::now();
  const std::string created = deltas.handle(parse_plan_request(create_line));
  t.record("dynamic.create_handle", seconds_since(c0));
  if (parse_plan_response(created).status != PlanStatus::kOk) ctx.mismatch("creation failed");

  dynamic::LiveGraph graph;
  graph.apply(create.mutations);
  PlanRequest synthetic;
  synthetic.app = create.app;
  synthetic.machines = create.machines;
  synthetic.vertices = graph.live_vertex_count();
  synthetic.edges = graph.live_edge_count();
  PlanResponse plan = traced.plan(synthetic);
  const PartitionerKind kind = partitioner_from_string(plan.partitioner);
  double pinned_alpha = plan.fitted_alpha;
  std::vector<double> weights = plan.weights;
  std::vector<MachineId> owners;
  std::unique_ptr<IncrementalState> inc;
  const auto rebuild = [&] {
    const EdgeList live = graph.live_edge_list();
    owners.assign(graph.slot_count(), kInvalidMachine);
    inc = IncrementalState::create(kind, weights, stream.seed);
    inc->ensure_vertices(graph.num_vertices());
    std::vector<MachineId> assigned;
    assigned.reserve(live.num_edges());
    inc->assign_batch(live.edges(), assigned);
    std::size_t next = 0;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (!graph.dead(i)) owners[i] = assigned[next++];
    }
  };
  rebuild();
  ExactHistogram profiled = graph.live_total_degree();
  DriftStats drift;
  drift.reset(graph.live_edge_count());
  DriftPolicy policy;
  policy.churn_threshold = kDeltaChurn;

  double untraced_total = 0.0, covered = 0.0;
  std::uint64_t moved_total = 0;
  std::size_t count = 0;
  const auto start = Clock::now();
  while (count < 10 || seconds_since(start) < budget_s) {
    const std::string line = serialize_request(stream.next_update(count));

    const auto u0 = Clock::now();
    const std::string real = deltas.handle(parse_plan_request(line));
    const double untraced_s = seconds_since(u0);

    DeltaInfo info;
    {
      Span root(t, "request");
      PlanRequest req;
      {
        Span s(t, "service.protocol_parse_delta");
        req = parse_plan_request(line);
      }
      const std::vector<MachineId> old_owners = owners;
      dynamic::LiveGraph::BatchResult applied;
      {
        Span s(t, "dynamic.live_apply");
        applied = graph.apply(req.mutations);
      }
      {
        Span s(t, "partition.incremental_assign");
        owners.resize(graph.slot_count(), kInvalidMachine);
        inc->ensure_vertices(graph.num_vertices());
        std::vector<Edge> added;
        for (const std::size_t slot : applied.added_slots) added.push_back(graph.slot(slot));
        std::vector<MachineId> assigned;
        inc->assign_batch(added, assigned);
        for (std::size_t i = 0; i < applied.added_slots.size(); ++i) {
          owners[applied.added_slots[i]] = assigned[i];
        }
        for (const std::size_t slot : applied.removed_slots) {
          if (owners[slot] != kInvalidMachine) {
            inc->retract(graph.slot(slot), owners[slot]);
            owners[slot] = kInvalidMachine;
          }
        }
      }
      drift.added += applied.added_slots.size();
      drift.removed += applied.removed_slots.size();
      double distance = 0.0;
      bool reprofile = false;
      {
        Span s(t, "core.drift");
        distance = histogram_distance(profiled, graph.live_total_degree());
        reprofile = should_reprofile(policy, drift, distance);
      }
      PlanRequest synth;
      synth.id = req.id;
      synth.app = create.app;
      synth.machines = create.machines;
      synth.vertices = graph.live_vertex_count();
      synth.edges = graph.live_edge_count();
      synth.partitioner = kind;
      std::uint64_t moved = 0;
      if (!reprofile) {
        synth.alpha = pinned_alpha;
        {
          Span s(t, "service.planner");
          plan = traced.plan(synth);
        }
        for (std::size_t i = 0; i < owners.size(); ++i) {
          if (graph.dead(i)) continue;
          const MachineId before = i < old_owners.size() ? old_owners[i] : kInvalidMachine;
          if (owners[i] != before) ++moved;
        }
      } else {
        {
          Span s(t, "service.planner_reprofile");
          const std::string key = traced.profile_key(synth);
          traced.invalidate_profile(key);
          plan = traced.plan(synth);
        }
        std::vector<MachineId> surviving;
        for (std::size_t i = 0; i < owners.size(); ++i) {
          if (!graph.dead(i)) {
            surviving.push_back(i < old_owners.size() ? old_owners[i] : kInvalidMachine);
          }
        }
        pinned_alpha = plan.fitted_alpha;
        weights = plan.weights;
        {
          Span s(t, "partition.incremental_rebuild");
          graph.compact(&owners);
          rebuild();
        }
        {
          Span s(t, "core.drift");
          profiled = graph.live_total_degree();
        }
        drift.reset(graph.live_edge_count());
        for (std::size_t i = 0; i < owners.size(); ++i) {
          if (owners[i] != surviving[i]) ++moved;
        }
      }
      info.reprofiled = reprofile;
      info.moved_edges = moved;
      info.live_vertices = graph.live_vertex_count();
      info.live_edges = graph.live_edge_count();
      std::uint64_t digest = hash_u64(graph.live_edge_count(), 0xD1B54A32D192ED03ull);
      PartitionAssignment assignment;
      {
        Span s(t, "dynamic.digest");
        assignment.num_machines = static_cast<MachineId>(weights.size());
        for (std::size_t i = 0; i < graph.slot_count(); ++i) {
          if (graph.dead(i)) continue;
          const Edge& e = graph.slot(i);
          digest = hash_combine(digest, (static_cast<std::uint64_t>(e.src) << 32) | e.dst);
          digest = hash_combine(digest, owners[i]);
          assignment.edge_to_machine.push_back(owners[i]);
        }
      }
      info.digest = digest;
      EdgeList live{0};
      {
        Span s(t, "dynamic.live_edge_list");
        live = graph.live_edge_list();
      }
      {
        Span s(t, "partition.metrics");
        const PartitionMetrics observed =
            compute_partition_metrics(live, assignment, weights, &traced.thread_pool());
        info.replication_factor = observed.replication_factor;
      }
      Span s(t, "service.protocol_serialize");
      serialize_response(plan);
    }
    const auto real_info = parse_delta_block(real);
    if (!real_info || real_info->digest != info.digest ||
        real_info->moved_edges != info.moved_edges ||
        real_info->reprofiled != info.reprofiled ||
        real_info->live_edges != info.live_edges ||
        real_info->live_vertices != info.live_vertices ||
        real_info->replication_factor != info.replication_factor) {
      ctx.mismatch("delta replica of batch " + std::to_string(count));
    }
    moved_total += info.moved_edges;
    auto self = t.take_request();
    self.erase("request");
    covered += std::min(sum(self), untraced_s);
    untraced_total += untraced_s;
    t.record("dynamic.delta_handle", untraced_s);
    ++count;
    ++ctx.attempted;
  }

  Metrics& m = ctx.metrics;
  m.set("dynamic.live_apply_ms", stat_median(ctx, "dynamic.live_apply") * 1e3, "ms");
  m.set("partition.incremental_assign_us",
        stat_median(ctx, "partition.incremental_assign") * 1e6, "us");
  m.set("core.drift_us", stat_median(ctx, "core.drift") * 1e6, "us");
  m.set("dynamic.delta_handle_ms", stat_median(ctx, "dynamic.delta_handle") * 1e3, "ms");
  m.set("dynamic.create_handle_ms", stat_median(ctx, "dynamic.create_handle") * 1e3, "ms");
  m.set("service.protocol_parse_delta_ms",
        stat_median(ctx, "service.protocol_parse_delta") * 1e3, "ms");
  m.set("service.protocol_parse_create_ms",
        stat_median(ctx, "service.protocol_parse_create") * 1e3, "ms");
  m.set("dynamic.reprofiles", static_cast<double>(untraced_metrics.counter("delta.reprofiles")),
        "count");
  m.set("dynamic.moved_edges", static_cast<double>(moved_total), "count");
  m.set("service.cache_invalidations",
        static_cast<double>(untraced_metrics.counter("cache.invalidations")), "count");
  m.set("obs.coverage_pct.delta_stream", coverage_pct(covered, untraced_total), "%");
  ctx.report << "delta_stream: " << count << " batches, " << untraced_metrics.counter("delta.reprofiles")
             << " re-profiles, " << untraced_metrics.counter("cache.invalidations")
             << " invalidations\n";
}

/// Every partitioner kind on the alpha=2.1 proxy over four equal machines.
void trace_partitioners(TraceContext& ctx, const ProxySuite& suite) {
  const EdgeList& graph = suite.nearest(2.1).graph;
  const std::vector<double> weights(4, 0.25);
  for (const PartitionerKind kind : extended_partitioner_kinds()) {
    const auto partitioner = make_partitioner(kind);
    std::vector<double> runs;
    for (int r = 0; r < 3; ++r) {
      const auto start = Clock::now();
      partitioner->partition(graph, weights, 7);
      runs.push_back(seconds_since(start));
    }
    ctx.metrics.set(std::string("partition.") + to_string(kind) + "_medges_per_s",
                    static_cast<double>(graph.num_edges()) / median(runs) / 1e6, "Medges/s");
  }
}

int cmd_trace(const Cli& cli) {
  TraceContext ctx;
  ctx.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  ctx.scale = cli.get_double("scale", 1.0 / 256.0);
  ctx.proxy_seed = static_cast<std::uint64_t>(cli.get_int("proxy-seed", 17));
  const double seconds = cli.get_double("seconds", 10.0);

  std::vector<double> suite_s;
  std::optional<ProxySuite> suite;
  for (int r = 0; r < 3; ++r) {
    const auto start = Clock::now();
    suite.emplace(ctx.scale, ctx.proxy_seed);
    suite_s.push_back(seconds_since(start));
  }
  ctx.metrics.set("gen.proxy_suite_ms", median(suite_s) * 1e3, "ms");
  trace_partitioners(ctx, *suite);
  trace_cold(ctx, 0.45 * seconds, *suite);
  trace_warm(ctx, 0.25 * seconds);
  trace_delta(ctx, 0.25 * seconds);
  std::cerr << ctx.report.str();
  std::cout << "{\"attempted\":" << ctx.attempted << ",\"failed\":" << ctx.mismatches
            << ",\"metrics\":" << ctx.metrics.json() << "}\n";
  return ctx.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool gen|equiv|ref|trace --flags\n";
    return 2;
  }
  const std::string command = argv[1];
  const Cli cli(argc - 1, argv + 1);
  try {
    int status = 2;
    if (command == "gen") {
      status = cmd_gen(cli);
    } else if (command == "equiv") {
      status = cmd_equiv(cli);
    } else if (command == "ref") {
      status = cmd_ref(cli);
    } else if (command == "trace") {
      status = cmd_trace(cli);
    } else {
      std::cerr << "perfbench_tool: unknown command '" << command << "'\n";
    }
    const auto unused = cli.unused_keys();
    if (status == 0 && !unused.empty()) {
      std::cerr << "perfbench_tool: unknown flag --" << unused.front() << "\n";
      return 2;
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << command << ": " << e.what() << "\n";
    return 1;
  }
}
