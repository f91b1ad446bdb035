#include "partition/partitioner.hpp"

#include <cmath>
#include <stdexcept>

namespace pglb {

std::vector<EdgeId> PartitionAssignment::machine_edge_counts() const {
  std::vector<EdgeId> counts(num_machines, 0);
  for (const MachineId m : edge_to_machine) {
    if (m >= num_machines) throw std::logic_error("PartitionAssignment: machine id out of range");
    ++counts[m];
  }
  return counts;
}

std::vector<double> normalized_weights(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument("partition: weights must be non-empty");
  double total = 0.0;
  for (const double w : weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument("partition: weights must be positive and finite");
    }
    total += w;
  }
  std::vector<double> normalized(weights.begin(), weights.end());
  for (double& w : normalized) w /= total;
  return normalized;
}

}  // namespace pglb
