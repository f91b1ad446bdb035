#pragma once
// The streaming partitioners (hybrid, HDRF, oblivious, grid) and their
// resumable scorer state (docs/DYNAMIC.md).
//
// The streaming family assigns edges one at a time against evolving
// per-vertex / per-machine state.  An IncrementalState owns exactly that
// state, so the delta planner can keep extending an assignment as mutation
// batches arrive instead of re-partitioning from scratch.  It is also the
// only implementation of these algorithms: make_partitioner's partition() for
// them feeds the whole graph through a FRESH state as one batch, which is how
// the delta planner rebuilds its state after a full re-profile too.  Pinned
// assignment digests (tests/test_property_partitioners.cpp) are the reference.
//
// Retraction is the documented approximation: removing an edge returns its
// load to the pool (and rolls back degree counters where the scorer keeps
// them), but replica masks stay monotone — un-replicating a vertex would
// require re-deriving which surviving edges pinned it, which is exactly the
// from-scratch work this subsystem avoids.  Drift tracking (src/core/drift.*)
// bounds how long the approximation is allowed to accumulate before a full
// re-profile resets everything.
//
// chunking and random_hash need no scorer state (supports() == false): the
// delta planner recomputes them over the live edge list each batch, which is
// already O(E) cheap by construction.  ginger is offline-iterative and is
// rejected at the protocol layer.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "partition/partitioner.hpp"
#include "persist/snapshot.hpp"

namespace pglb {

enum class PartitionerKind;  // enumerators in partition/factory.hpp

struct HybridOptions {
  /// In-degree above which a vertex is treated as high-degree (PowerLyra's
  /// default threshold).
  EdgeId high_degree_threshold = 100;
};

struct HdrfOptions {
  /// Balance weight lambda; Petroni et al. recommend ~1.
  double lambda = 1.0;
};

class IncrementalState {
 public:
  virtual ~IncrementalState() = default;

  virtual PartitionerKind kind() const noexcept = 0;

  /// Grow per-vertex state to cover ids in [0, count).  Growth only; the
  /// vertex space never shrinks between full rebuilds.
  virtual void ensure_vertices(VertexId count) = 0;

  /// Assign every edge of `batch` in order, appending one owner per edge to
  /// `out`.  Stateful: each call continues where the previous one stopped.
  /// Throws std::out_of_range on an endpoint not covered by ensure_vertices,
  /// and CancelledError when the ambient CancelScope fires (polled every
  /// 16,384 edges); after a throw the state and `out` are unspecified.
  virtual void assign_batch(std::span<const Edge> batch,
                            std::vector<MachineId>& out) = 0;

  /// Roll back the load (and degree counters) edge `e`, previously assigned
  /// to `owner`, contributed.  Replica masks are intentionally left monotone;
  /// see the header comment.
  virtual void retract(const Edge& e, MachineId owner) = 0;

  /// Serialize internal state with the persist payload primitives.  Weights,
  /// seed, and options are NOT encoded — the caller owns those and passes
  /// them back to decode().
  virtual void encode(std::string& out) const = 0;

  std::uint64_t seed() const noexcept { return seed_; }

  /// True for the streaming family that carries scorer state.
  static bool supports(PartitionerKind kind) noexcept;

  /// Fresh state for `kind`.  Validates weights (normalized_weights) and the
  /// machine-count limits, throwing std::invalid_argument on violations or
  /// on an unsupported kind.
  static std::unique_ptr<IncrementalState> create(
      PartitionerKind kind, std::span<const double> weights, std::uint64_t seed,
      const HybridOptions& hybrid = {}, const HdrfOptions& hdrf = {});

  /// create() followed by restoring an encode()d payload whose per-vertex
  /// arrays may cover at most `max_vertices` ids — checked before anything is
  /// allocated for them.  Throws persist::SnapshotError on malformed bytes.
  static std::unique_ptr<IncrementalState> decode(
      PartitionerKind kind, persist::Cursor& cursor, std::uint64_t max_vertices,
      std::span<const double> weights, std::uint64_t seed,
      const HybridOptions& hybrid = {}, const HdrfOptions& hdrf = {});

 protected:
  explicit IncrementalState(std::uint64_t seed) : seed_(seed) {}

  virtual void decode_state(persist::Cursor& cursor, std::uint64_t max_vertices) = 0;

  std::uint64_t seed_;
};

/// make_partitioner's hybrid, HDRF, oblivious and grid: partition() assigns
/// the whole graph as one batch through a fresh IncrementalState.
std::unique_ptr<Partitioner> make_streaming_partitioner(PartitionerKind kind,
                                                        const HybridOptions& hybrid,
                                                        const HdrfOptions& hdrf);

}  // namespace pglb
