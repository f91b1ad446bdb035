#pragma once
// Graph mutations for the delta-planning subsystem (docs/DYNAMIC.md).
//
// A `delta` protocol request carries a batch of these against a named base
// graph.  Batches are ATOMIC: LiveGraph::apply() validates the whole batch —
// including batch-local effects, so "add then remove the same edge" is legal
// while "remove twice" is a contradiction — before mutating anything, and a
// rejected batch throws the typed MutationError without side effects.
//
// LiveGraph is the shared mutable-graph substrate: the delta planner's
// per-base state AND the load generator's client-side mirror both run on it,
// which is what makes the incremental-vs-scratch equivalence check exact —
// both sides replay the identical seeded mutation stream over identical
// semantics.
//
// Edge identity is positional: edges live in insertion-ordered slots,
// removal tombstones the FIRST live slot matching (src, dst), and
// compaction preserves survivor order.  A from-scratch base that ingests the
// survivors in live-slot order therefore reconstructs the exact edge
// sequence the streaming partitioners saw — the property the forced
// full-re-profile byte-identity gate rests on.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/histogram.hpp"

namespace pglb::dynamic {

enum class MutationOp : std::uint8_t {
  kAddEdge,
  kRemoveEdge,
  kAddVertex,
  kRemoveVertex,
};

const char* to_string(MutationOp op) noexcept;
std::optional<MutationOp> mutation_op_from_string(std::string_view name) noexcept;

/// One mutation.  Edge ops use (src, dst); vertex ops use src as the vertex
/// id (dst is ignored and kept 0).
struct Mutation {
  MutationOp op = MutationOp::kAddEdge;
  VertexId src = 0;
  VertexId dst = 0;

  static Mutation add_edge(VertexId src, VertexId dst) {
    return Mutation{MutationOp::kAddEdge, src, dst};
  }
  static Mutation remove_edge(VertexId src, VertexId dst) {
    return Mutation{MutationOp::kRemoveEdge, src, dst};
  }
  static Mutation add_vertex(VertexId id) {
    return Mutation{MutationOp::kAddVertex, id, 0};
  }
  static Mutation remove_vertex(VertexId id) {
    return Mutation{MutationOp::kRemoveVertex, id, 0};
  }

  friend bool operator==(const Mutation&, const Mutation&) = default;
};

/// A batch that violates mutation semantics (contradictory ops, removal of a
/// non-live edge or vertex, re-adding a live vertex).  The server answers
/// with a typed error response carrying this message; nothing was applied.
class MutationError : public std::runtime_error {
 public:
  explicit MutationError(const std::string& what) : std::runtime_error(what) {}
};

/// Insertion-ordered edge store with tombstones and per-vertex liveness.
class LiveGraph {
 public:
  /// What one applied batch changed, in application order — the delta the
  /// incremental partition state consumes.
  struct BatchResult {
    std::vector<std::size_t> added_slots;    ///< freshly appended live slots
    std::vector<std::size_t> removed_slots;  ///< slots tombstoned by the batch
  };

  /// Validate the whole batch (batch-local effects included), then apply it.
  /// Throws MutationError leaving the graph untouched when any mutation is
  /// invalid:
  ///  - remove_edge of an edge that is not live at its point in the batch
  ///    (covers duplicates of a single edge and add/remove contradictions
  ///    resolved in order);
  ///  - add_vertex of an already-live vertex;
  ///  - remove_vertex of a vertex that is not live (removing it also removes
  ///    every incident live edge).
  /// add_edge is always legal: duplicates make a multigraph, and endpoints
  /// are revived / the vertex space grown as needed.
  BatchResult apply(std::span<const Mutation> batch);

  VertexId num_vertices() const noexcept { return num_vertices_; }
  std::uint64_t live_edge_count() const noexcept { return live_edges_; }
  std::uint64_t live_vertex_count() const noexcept { return live_vertices_; }
  std::size_t slot_count() const noexcept { return slots_.size(); }
  const Edge& slot(std::size_t i) const { return slots_.at(i); }
  bool dead(std::size_t i) const { return dead_.at(i) != 0; }
  bool vertex_alive(VertexId v) const noexcept {
    return v < num_vertices_ && alive_[v] != 0;
  }

  /// Survivors in slot order over the full vertex space — what the streaming
  /// partitioners and the scratch-equivalence replay consume.
  EdgeList live_edge_list() const;

  /// Total-degree histogram over live edges and live vertices (isolated live
  /// vertices count in the degree-0 bucket) — the drift comparand.
  ExactHistogram live_total_degree() const;

  /// Drop tombstoned slots (preserving survivor order) and shrink the vertex
  /// space to the highest live vertex + 1.  `owners`, when given, must be
  /// slot-aligned and is compacted in tandem.  After compaction the graph is
  /// byte-equivalent to a fresh LiveGraph that ingested the survivors — the
  /// state reset a full re-profile performs.
  void compact(std::vector<MachineId>* owners = nullptr);

  /// The n-th live slot (0-based, slot order); throws std::out_of_range when
  /// fewer than n+1 edges are live.  Deterministic pick primitive for the
  /// seeded mutation-stream generator.
  std::size_t nth_live_slot(std::uint64_t n) const;

  /// Extend the vertex space to `count` ids (never shrinks); the new ids are
  /// not live.  A snapshot restore uses it to keep the space it recorded when
  /// the highest vertices had been removed.
  void grow_vertex_space(VertexId count);

 private:
  void revive(VertexId v);
  static std::uint64_t pair_key(VertexId src, VertexId dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  std::vector<Edge> slots_;
  std::vector<std::uint8_t> dead_;
  /// (src, dst) -> live slots holding that edge, insertion-ordered.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> live_index_;
  std::vector<std::uint8_t> alive_;
  VertexId num_vertices_ = 0;
  std::uint64_t live_edges_ = 0;
  std::uint64_t live_vertices_ = 0;
};

/// One deterministic batch of a seeded mutation stream over `mirror`: mostly
/// edge churn (adds biased to existing vertices, removals of live edges),
/// with occasional vertex births and low-degree vertex retirements so every
/// mutation kind flows through the protocol.  Batches generated against the
/// same mirror state, seed, and index are identical, and are always valid
/// for that state — the generator tracks its own batch-local effects.
std::vector<Mutation> generate_mutation_batch(const LiveGraph& mirror,
                                              std::uint64_t seed,
                                              std::uint64_t batch_index,
                                              std::size_t edits);

}  // namespace pglb::dynamic
