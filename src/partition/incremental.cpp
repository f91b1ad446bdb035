#include "partition/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "partition/factory.hpp"
#include "util/deadline.hpp"
#include "util/hash.hpp"

namespace pglb {

namespace {

/// The partition.<kind> trace span, which is also the deadline-poll site.
const char* span_name(PartitionerKind kind) noexcept {
  switch (kind) {
    case PartitionerKind::kHybrid: return "partition.hybrid";
    case PartitionerKind::kHdrf: return "partition.hdrf";
    case PartitionerKind::kOblivious: return "partition.oblivious";
    default: return "partition.grid";
  }
}

[[noreturn]] void throw_uncovered(const Edge& e, std::size_t covered) {
  throw std::out_of_range("incremental state: edge (" + std::to_string(e.src) + ", " +
                          std::to_string(e.dst) + ") has an endpoint beyond the " +
                          std::to_string(covered) + " vertices ensure_vertices covered");
}

/// Throws unless both endpoints of `e` are below `covered`.  Every scorer
/// runs it on an edge before it indexes its per-vertex arrays, which it then
/// does unchecked.
void check_covered(const Edge& e, std::size_t covered) {
  if (e.src >= covered || e.dst >= covered) throw_uncovered(e, covered);
}

/// The one streaming loop every scorer runs: `out` grows by one owner per
/// edge up front, then owner i = pick(batch[i], i) in order.  Each chunk of
/// 16,384 edges first polls the ambient deadline (docs/ROBUSTNESS.md).
template <typename Pick>
void stream(std::span<const Edge> batch, std::vector<MachineId>& out, PartitionerKind kind,
            Pick pick) {
  constexpr std::size_t kChunk = 0x4000;
  const std::size_t first = out.size();
  out.resize(first + batch.size());
  MachineId* const owner = out.data() + first;
  for (std::size_t begin = 0; begin < batch.size(); begin += kChunk) {
    poll_cancellation(span_name(kind));
    const std::size_t end = std::min(batch.size(), begin + kChunk);
    for (std::size_t i = begin; i < end; ++i) owner[i] = pick(batch[i], i);
  }
}

/// Whether machine `m` with `score` displaces `incumbent` (kInvalidMachine
/// before the first machine) when `better` orders scores.  Exact ties go to
/// the lower per-edge hash of the machine, computed only when scores tie.
template <typename Better>
bool displaces(MachineId m, double score, MachineId incumbent, double incumbent_score,
               std::uint64_t tie_hash, Better better) {
  return incumbent == kInvalidMachine || better(score, incumbent_score) ||
         (score == incumbent_score && hash_u64(tie_hash, m) < hash_u64(tie_hash, incumbent));
}

// Sparse (index, value) encoding for per-vertex arrays — after a few batches
// most vertices carry state, but fresh post-rebuild states are near-empty and
// the format stays O(nonzero).
template <typename T>
void encode_sparse(std::string& out, const std::vector<T>& values) {
  persist::append_u64(out, values.size());
  std::uint64_t nonzero = 0;
  for (const T& v : values) {
    if (v != 0) ++nonzero;
  }
  persist::append_u64(out, nonzero);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == 0) continue;
    persist::append_u32(out, static_cast<std::uint32_t>(i));
    persist::append_u64(out, static_cast<std::uint64_t>(values[i]));
  }
}

template <typename T>
std::vector<T> decode_sparse(persist::Cursor& cursor, std::uint64_t max_size) {
  const std::uint64_t size = cursor.read_u64();
  if (size > max_size) {
    throw persist::SnapshotError("incremental state: per-vertex array exceeds the base");
  }
  std::vector<T> values(size, 0);
  const std::uint64_t nonzero = cursor.read_u64();
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    const std::uint32_t index = cursor.read_u32();
    if (index >= size) {
      throw persist::SnapshotError("incremental state: sparse index out of range");
    }
    values[index] = static_cast<T>(cursor.read_u64());
  }
  return values;
}

// --- hybrid ----------------------------------------------------------------
// Heterogeneity-aware Hybrid partitioner (Sec. II-C, from PowerLyra [15]).
//
// Mixed cut in two passes:
//  1. every edge goes to the (weight-biased) hash of its *target* vertex, so
//     low-degree vertices keep all in-edges local — an edge cut, zero mirrors
//     for them;
//  2. vertices whose in-degree exceeds a threshold are re-cut: each of their
//     in-edges moves to the hash of its *source* vertex, bounding a hub's
//     mirrors by the machine count instead of its degree — a vertex cut.
// Heterogeneity awareness replaces both uniform hashes with weighted hashes,
// exactly as in Random Hash.
//
// The in-degree table is kept across batches, and each batch counts ALL of
// its in-degrees before assigning any of its edges — so a whole graph fed as
// one batch sees its exact final in-degrees (Sec. II-C1's first pass).

class HybridIncrementalState final : public IncrementalState {
 public:
  HybridIncrementalState(std::span<const double> weights, std::uint64_t seed,
                         const HybridOptions& options)
      : IncrementalState(seed),
        options_(options),
        cum_(prefix_sum(normalized_weights(weights))) {}

  PartitionerKind kind() const noexcept override { return PartitionerKind::kHybrid; }

  void ensure_vertices(VertexId count) override {
    if (count > in_degree_.size()) in_degree_.resize(count, 0);
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    EdgeId* const in_degree = in_degree_.data();
    const std::size_t covered = in_degree_.size();
    for (const Edge& e : batch) {  // checks every edge before stream() runs
      check_covered(e, covered);
      ++in_degree[e.dst];
    }
    const EdgeId threshold = options_.high_degree_threshold;
    const std::uint64_t seed = seed_;
    const std::span<const double> cum = cum_;
    stream(batch, out, kind(), [=](const Edge& e, std::size_t) {
      const VertexId key = in_degree[e.dst] > threshold ? e.src : e.dst;
      return static_cast<MachineId>(weighted_pick(hash_u64(key, seed), cum));
    });
  }

  void retract(const Edge& e, MachineId /*owner*/) override {
    if (e.dst < in_degree_.size() && in_degree_[e.dst] > 0) --in_degree_[e.dst];
  }

  void encode(std::string& out) const override { encode_sparse(out, in_degree_); }

 private:
  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    in_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
  }

  HybridOptions options_;
  std::vector<double> cum_;
  std::vector<EdgeId> in_degree_;
};

// --- hdrf ------------------------------------------------------------------
// HDRF — High-Degree (are) Replicated First (Petroni et al., CIKM'15) —
// extension partitioner beyond the paper's five.
//
// A streaming vertex-cut that favours replicating high-degree endpoints:
// for edge (u, v) each machine p is scored
//
//   C(p) = C_rep(p) + lambda * C_bal(p)
//   C_rep(p) = g(u, p) + g(v, p)
//   g(w, p)  = (1 + (1 - theta_w)) if p already hosts w else 0,
//              theta_w = deg(w) / (deg(u) + deg(v))   (partial degrees)
//   C_bal(p) = (maxsize - size(p)) / (eps + maxsize - minsize)
//
// Heterogeneity awareness replaces raw sizes with weighted loads
// size(p) / share(p), so a machine "fills up" relative to its capability —
// the same CCR hook the paper adds to Oblivious.

class HdrfIncrementalState final : public IncrementalState {
 public:
  HdrfIncrementalState(std::span<const double> weights, std::uint64_t seed,
                       const HdrfOptions& options)
      : IncrementalState(seed), options_(options), fill_(normalized_weights(weights)) {
    if (fill_.size() > 64) throw std::invalid_argument("hdrf: at most 64 machines supported");
    for (double& fill : fill_) fill = 1.0 / fill;
    load_.assign(fill_.size(), 0.0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kHdrf; }

  void ensure_vertices(VertexId count) override {
    if (count > replicas_.size()) {
      replicas_.resize(count, 0);
      partial_degree_.resize(count, 0);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    const auto num_machines = static_cast<MachineId>(fill_.size());
    const double lambda = options_.lambda;
    const std::uint64_t seed = seed_;
    const double* const fill = fill_.data();
    double* const load = load_.data();  // weighted: edges / share
    std::uint64_t* const replicas = replicas_.data();
    EdgeId* const partial_degree = partial_degree_.data();
    const std::size_t covered = replicas_.size();
    stream(batch, out, kind(), [=](const Edge& e, std::size_t) {
      check_covered(e, covered);
      ++partial_degree[e.src];
      ++partial_degree[e.dst];
      const double du = static_cast<double>(partial_degree[e.src]);
      const double dv = static_cast<double>(partial_degree[e.dst]);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;

      double max_load = 0.0, min_load = std::numeric_limits<double>::infinity();
      for (MachineId p = 0; p < num_machines; ++p) {
        max_load = std::max(max_load, load[p]);
        min_load = std::min(min_load, load[p]);
      }

      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed);
      MachineId best = kInvalidMachine;
      double best_score = 0.0;
      for (MachineId p = 0; p < num_machines; ++p) {
        double c_rep = 0.0;
        if (replicas[e.src] & (std::uint64_t{1} << p)) c_rep += 1.0 + (1.0 - theta_u);
        if (replicas[e.dst] & (std::uint64_t{1} << p)) c_rep += 1.0 + (1.0 - theta_v);
        const double c_bal = (max_load - load[p]) / (1e-9 + max_load - min_load);
        const double score = c_rep + lambda * c_bal;
        if (displaces(p, score, best, best_score, tie_hash, std::greater<>())) {
          best = p;
          best_score = score;
        }
      }

      load[best] += fill[best];  // capability-weighted fill
      replicas[e.src] |= std::uint64_t{1} << best;
      replicas[e.dst] |= std::uint64_t{1} << best;
      return best;
    });
  }

  void retract(const Edge& e, MachineId owner) override {
    if (owner < load_.size()) {
      load_[owner] = std::max(0.0, load_[owner] - fill_[owner]);
    }
    if (e.src < partial_degree_.size() && partial_degree_[e.src] > 0) {
      --partial_degree_[e.src];
    }
    if (e.dst < partial_degree_.size() && partial_degree_[e.dst] > 0) {
      --partial_degree_[e.dst];
    }
  }

  void encode(std::string& out) const override {
    persist::append_u32(out, static_cast<std::uint32_t>(load_.size()));
    for (const double l : load_) persist::append_f64(out, l);
    encode_sparse(out, replicas_);
    encode_sparse(out, partial_degree_);
  }

 private:
  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    const std::uint32_t machines = cursor.read_u32();
    if (machines != load_.size()) {
      throw persist::SnapshotError("hdrf incremental state: machine count mismatch");
    }
    for (double& l : load_) l = cursor.read_f64();
    replicas_ = decode_sparse<std::uint64_t>(cursor, max_vertices);
    partial_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
    if (replicas_.size() != partial_degree_.size()) {
      throw persist::SnapshotError("hdrf incremental state: vertex array mismatch");
    }
  }

  HdrfOptions options_;
  std::vector<double> fill_;  ///< 1 / share: the weighted load of one edge
  std::vector<std::uint64_t> replicas_;
  std::vector<EdgeId> partial_degree_;
  std::vector<double> load_;
};

// --- oblivious -------------------------------------------------------------
// Heterogeneity-aware Oblivious partitioner (Sec. II-B2).
//
// PowerGraph's greedy streaming vertex-cut: each edge is placed using the
// history of prior placements (the replica sets of its endpoints) so that
// replication stays low, while balancing machine loads.  The heterogeneity-
// aware extension scores load as edges[m] / weight[m], so a fast machine
// looks "emptier" until it holds its CCR-proportional share.  As the paper
// notes, the locality heuristics mean the final balance only approximately
// follows the weights.

/// The least weighted-loaded machine among an edge's candidates and overall,
/// with their weighted loads (edges[m] / share[m]).
struct LeastLoaded {
  MachineId candidate = kInvalidMachine;
  MachineId least = kInvalidMachine;
  double candidate_load = 0.0;
  double least_load = 0.0;
};

/// One pass over the machines; `mask` holds the candidates (all machines when
/// 0).
LeastLoaded least_loaded(std::uint64_t mask, std::uint64_t tie_hash, const EdgeId* loads,
                         const double* shares, MachineId num_machines) {
  LeastLoaded result;
  for (MachineId m = 0; m < num_machines; ++m) {
    const double load = static_cast<double>(loads[m]) / shares[m];
    if (displaces(m, load, result.least, result.least_load, tie_hash, std::less<>())) {
      result.least = m;
      result.least_load = load;
    }
    if ((mask == 0 || (mask & (std::uint64_t{1} << m)) != 0) &&
        displaces(m, load, result.candidate, result.candidate_load, tie_hash, std::less<>())) {
      result.candidate = m;
      result.candidate_load = load;
    }
  }
  return result;
}

class ObliviousIncrementalState final : public IncrementalState {
 public:
  ObliviousIncrementalState(std::span<const double> weights, std::uint64_t seed)
      : IncrementalState(seed), shares_(normalized_weights(weights)) {
    if (shares_.size() > 64) {
      throw std::invalid_argument("oblivious: at most 64 machines supported");
    }
    loads_.assign(shares_.size(), 0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kOblivious; }

  void ensure_vertices(VertexId count) override {
    if (count > replicas_.size()) {
      replicas_.resize(count, 0);
      assigned_degree_.resize(count, 0);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    const std::uint64_t seed = seed_;
    // The slack below grows with the global stream position, which edge_index_
    // carries across batches (monotone — a retraction does not rewind it, so
    // the slack schedule never tightens retroactively).
    const std::uint64_t position = edge_index_;
    const double* const shares = shares_.data();
    EdgeId* const loads = loads_.data();
    std::uint64_t* const replicas = replicas_.data();
    EdgeId* const assigned_degree = assigned_degree_.data();
    const std::size_t covered = replicas_.size();
    stream(batch, out, kind(), [=](const Edge& e, std::size_t i) {
      check_covered(e, covered);
      const std::uint64_t au = replicas[e.src];
      const std::uint64_t av = replicas[e.dst];
      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed);

      std::uint64_t candidates;
      if ((au & av) != 0) {
        // Case 1: shared machine — extend locality, no new mirror at all.
        candidates = au & av;
      } else if (au != 0 && av != 0) {
        // Case 2: both placed but disjoint — favour the machine set of the
        // (apparently) higher-degree endpoint, so the hub gains no new mirror.
        candidates = assigned_degree[e.src] >= assigned_degree[e.dst] ? au : av;
      } else if ((au | av) != 0) {
        // Case 3: exactly one endpoint placed.
        candidates = au | av;
      } else {
        // Case 4: fresh edge — pure weighted load balancing.
        candidates = 0;
      }

      const LeastLoaded pick = least_loaded(candidates, tie_hash, loads, shares, num_machines);
      MachineId m = pick.candidate;
      // Balance guard (PowerGraph keeps greedy placement within a slack of the
      // least-loaded machine): when the locality pick has drifted too far
      // above its weighted share, fall back to pure load balancing.
      const double slack = 8.0 + 0.05 * static_cast<double>(position + i + 1) /
                                     static_cast<double>(num_machines);
      if (pick.candidate_load > pick.least_load + slack) m = pick.least;
      ++loads[m];
      replicas[e.src] |= std::uint64_t{1} << m;
      replicas[e.dst] |= std::uint64_t{1} << m;
      ++assigned_degree[e.src];
      ++assigned_degree[e.dst];
      return m;
    });
    edge_index_ += batch.size();
  }

  void retract(const Edge& e, MachineId owner) override {
    if (owner < loads_.size() && loads_[owner] > 0) --loads_[owner];
    if (e.src < assigned_degree_.size() && assigned_degree_[e.src] > 0) {
      --assigned_degree_[e.src];
    }
    if (e.dst < assigned_degree_.size() && assigned_degree_[e.dst] > 0) {
      --assigned_degree_[e.dst];
    }
  }

  void encode(std::string& out) const override {
    persist::append_u64(out, edge_index_);
    persist::append_u32(out, static_cast<std::uint32_t>(loads_.size()));
    for (const EdgeId l : loads_) persist::append_u64(out, l);
    encode_sparse(out, replicas_);
    encode_sparse(out, assigned_degree_);
  }

 private:
  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    edge_index_ = cursor.read_u64();
    const std::uint32_t machines = cursor.read_u32();
    if (machines != loads_.size()) {
      throw persist::SnapshotError("oblivious incremental state: machine count mismatch");
    }
    for (EdgeId& l : loads_) l = cursor.read_u64();
    replicas_ = decode_sparse<std::uint64_t>(cursor, max_vertices);
    assigned_degree_ = decode_sparse<EdgeId>(cursor, max_vertices);
    if (replicas_.size() != assigned_degree_.size()) {
      throw persist::SnapshotError("oblivious incremental state: vertex array mismatch");
    }
  }

  std::vector<double> shares_;
  std::vector<std::uint64_t> replicas_;
  std::vector<EdgeId> assigned_degree_;
  std::vector<EdgeId> loads_;
  std::uint64_t edge_index_ = 0;
};

// --- grid ------------------------------------------------------------------
// Heterogeneity-aware Grid partitioner (Sec. II-B3, Fig. 5).
//
// Machines form a sqrt(M) x sqrt(M) grid; a *shard* is a row or column.  Each
// vertex hashes (weight-biased) to a home machine, whose row+column form its
// constraint set; an edge may only go to the intersection of its endpoints'
// constraint sets, bounding each vertex's replicas to O(2 sqrt(M)) and thus
// the communication fan-out.  Within the intersection the machine with the
// maximum CCR-weighted score (capability share over current load) wins.
//
// Constraints are a pure function of (vertex, seed, shares), so only the
// per-machine loads are real state; constraint masks are re-derived on
// ensure_vertices and never serialized.

class GridIncrementalState final : public IncrementalState {
 public:
  /// Throws std::invalid_argument when the machine count is not a perfect
  /// square (the paper's stated constraint).
  GridIncrementalState(std::span<const double> weights, std::uint64_t seed)
      : IncrementalState(seed), shares_(normalized_weights(weights)) {
    const auto num_machines = static_cast<MachineId>(shares_.size());
    side_ = static_cast<MachineId>(
        std::lround(std::sqrt(static_cast<double>(num_machines))));
    if (side_ * side_ != num_machines) {
      throw std::invalid_argument("grid: machine count must be a perfect square");
    }
    if (num_machines > 64) throw std::invalid_argument("grid: at most 64 machines supported");
    cum_ = prefix_sum(shares_);
    loads_.assign(num_machines, 0);
  }

  PartitionerKind kind() const noexcept override { return PartitionerKind::kGrid; }

  void ensure_vertices(VertexId count) override {
    const auto old = static_cast<VertexId>(constraints_.size());
    if (count <= old) return;
    constraints_.resize(count);
    for (VertexId v = old; v < count; ++v) {
      const auto home = static_cast<MachineId>(weighted_pick(hash_u64(v, seed_), cum_));
      constraints_[v] = constraint_of(home);
    }
  }

  void assign_batch(std::span<const Edge> batch,
                    std::vector<MachineId>& out) override {
    const std::uint64_t seed = seed_;
    const double* const shares = shares_.data();
    const std::uint64_t* const constraints = constraints_.data();
    EdgeId* const loads = loads_.data();
    const std::size_t covered = constraints_.size();
    stream(batch, out, kind(), [=](const Edge& e, std::size_t) {
      check_covered(e, covered);
      std::uint64_t candidates = constraints[e.src] & constraints[e.dst];
      // The intersection of two row+column crosses is never empty, but guard
      // anyway (e.g. hand-built constraint tables in tests).
      if (candidates == 0) candidates = constraints[e.src] | constraints[e.dst];

      const std::uint64_t tie_hash = hash_edge(e.src, e.dst, seed);
      MachineId best = kInvalidMachine;
      double best_score = 0.0;
      // Candidates in ascending machine order, as a scan of every machine
      // that skips the unset bits would visit them.
      for (std::uint64_t rest = candidates; rest != 0; rest &= rest - 1) {
        const auto m = static_cast<MachineId>(std::countr_zero(rest));
        // CCR-guided score: capability share per unit of already-assigned load.
        const double score = shares[m] / (1.0 + static_cast<double>(loads[m]));
        if (displaces(m, score, best, best_score, tie_hash, std::greater<>())) {
          best = m;
          best_score = score;
        }
      }
      ++loads[best];
      return best;
    });
  }

  void retract(const Edge& /*e*/, MachineId owner) override {
    if (owner < loads_.size() && loads_[owner] > 0) --loads_[owner];
  }

  void encode(std::string& out) const override {
    persist::append_u64(out, constraints_.size());
    persist::append_u32(out, static_cast<std::uint32_t>(loads_.size()));
    for (const EdgeId l : loads_) persist::append_u64(out, l);
  }

 private:
  /// Row + column machines of `home` in the side x side grid.
  std::uint64_t constraint_of(MachineId home) const {
    const MachineId row = home / side_;
    const MachineId col = home % side_;
    std::uint64_t mask = 0;
    for (MachineId k = 0; k < side_; ++k) {
      mask |= std::uint64_t{1} << (row * side_ + k);  // whole row
      mask |= std::uint64_t{1} << (k * side_ + col);  // whole column
    }
    return mask;
  }

  void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) override {
    const std::uint64_t vertices = cursor.read_u64();
    if (vertices > max_vertices) {
      throw persist::SnapshotError("grid incremental state: vertex count exceeds the base");
    }
    ensure_vertices(static_cast<VertexId>(vertices));
    const std::uint32_t machines = cursor.read_u32();
    if (machines != loads_.size()) {
      throw persist::SnapshotError("grid incremental state: machine count mismatch");
    }
    for (EdgeId& l : loads_) l = cursor.read_u64();
  }

  std::vector<double> shares_;
  std::vector<double> cum_;
  MachineId side_ = 0;
  std::vector<std::uint64_t> constraints_;
  std::vector<EdgeId> loads_;
};

class StreamingPartitioner final : public Partitioner {
 public:
  StreamingPartitioner(PartitionerKind kind, const HybridOptions& hybrid,
                       const HdrfOptions& hdrf)
      : kind_(kind), hybrid_(hybrid), hdrf_(hdrf) {}

  std::string name() const override { return to_string(kind_); }

  PartitionAssignment partition(const EdgeList& graph, std::span<const double> weights,
                                std::uint64_t seed) const override {
    // Label carries the machine count (bounded label set, interned once per
    // distinct count); the guard keeps the disabled-tracing path
    // allocation-free.
    PGLB_TRACE_SPAN_SARG(
        span_name(kind_), "partition",
        tracing_enabled()
            ? intern_trace_label("machines=" + std::to_string(weights.size()))
            : nullptr);
    const auto state = IncrementalState::create(kind_, weights, seed, hybrid_, hdrf_);
    state->ensure_vertices(graph.num_vertices());
    PartitionAssignment result;
    result.num_machines = static_cast<MachineId>(weights.size());
    state->assign_batch(graph.edges(), result.edge_to_machine);
    return result;
  }

 private:
  PartitionerKind kind_;
  HybridOptions hybrid_;
  HdrfOptions hdrf_;
};

}  // namespace

bool IncrementalState::supports(PartitionerKind kind) noexcept {
  return kind == PartitionerKind::kHybrid || kind == PartitionerKind::kHdrf ||
         kind == PartitionerKind::kOblivious || kind == PartitionerKind::kGrid;
}

std::unique_ptr<IncrementalState> IncrementalState::create(
    PartitionerKind kind, std::span<const double> weights, std::uint64_t seed,
    const HybridOptions& hybrid, const HdrfOptions& hdrf) {
  switch (kind) {
    case PartitionerKind::kHybrid:
      return std::make_unique<HybridIncrementalState>(weights, seed, hybrid);
    case PartitionerKind::kHdrf:
      return std::make_unique<HdrfIncrementalState>(weights, seed, hdrf);
    case PartitionerKind::kOblivious:
      return std::make_unique<ObliviousIncrementalState>(weights, seed);
    case PartitionerKind::kGrid:
      return std::make_unique<GridIncrementalState>(weights, seed);
    default:
      throw std::invalid_argument(std::string("incremental state: unsupported partitioner ") +
                                  to_string(kind));
  }
}

std::unique_ptr<IncrementalState> IncrementalState::decode(
    PartitionerKind kind, persist::Cursor& cursor, std::uint64_t max_vertices,
    std::span<const double> weights, std::uint64_t seed, const HybridOptions& hybrid,
    const HdrfOptions& hdrf) {
  auto state = create(kind, weights, seed, hybrid, hdrf);
  state->decode_state(cursor, max_vertices);
  return state;
}

std::unique_ptr<Partitioner> make_streaming_partitioner(PartitionerKind kind,
                                                        const HybridOptions& hybrid,
                                                        const HdrfOptions& hdrf) {
  return std::make_unique<StreamingPartitioner>(kind, hybrid, hdrf);
}

}  // namespace pglb
