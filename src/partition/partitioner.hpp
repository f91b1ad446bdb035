#pragma once
// Streaming graph-partitioner interface (Sec. II of the paper).
//
// A partitioner assigns every edge of the input to one machine (vertex-cut
// semantics: vertices incident to edges on several machines get replicated as
// mirrors).  Heterogeneity awareness enters through the `weights` vector —
// the normalised capability share of each machine (uniform, thread-count
// [prior work 5], or CCR-derived [this paper]).  All partitioners are pure
// functions of (graph, weights, seed).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace pglb {

struct PartitionAssignment {
  MachineId num_machines = 0;
  /// edge_to_machine[i] is the owner of graph.edges()[i].
  std::vector<MachineId> edge_to_machine;

  /// Edges owned by each machine.
  std::vector<EdgeId> machine_edge_counts() const;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual std::string name() const = 0;

  /// `weights` must have one positive entry per machine; they are normalised
  /// internally.  Throws std::invalid_argument on malformed weights.
  virtual PartitionAssignment partition(const EdgeList& graph,
                                        std::span<const double> weights,
                                        std::uint64_t seed) const = 0;
};

/// Validate + normalise weights to sum 1.  Throws std::invalid_argument on an
/// empty vector or a non-positive / non-finite entry.
std::vector<double> normalized_weights(std::span<const double> weights);

}  // namespace pglb
