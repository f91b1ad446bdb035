#include "partition/factory.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "partition/chunking.hpp"
#include "partition/random_hash.hpp"

namespace pglb {

const char* to_string(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kRandomHash: return "random_hash";
    case PartitionerKind::kOblivious: return "oblivious";
    case PartitionerKind::kGrid: return "grid";
    case PartitionerKind::kHybrid: return "hybrid";
    case PartitionerKind::kGinger: return "ginger";
    case PartitionerKind::kChunking: return "chunking";
    case PartitionerKind::kHdrf: return "hdrf";
  }
  return "unknown";
}

PartitionerKind partitioner_from_string(const std::string& name) {
  for (const PartitionerKind kind : extended_partitioner_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("partitioner_from_string: unknown partitioner '" + name + "'");
}

std::unique_ptr<Partitioner> make_partitioner(PartitionerKind kind,
                                              const PartitionerOptions& options) {
  switch (kind) {
    case PartitionerKind::kRandomHash: return std::make_unique<RandomHashPartitioner>();
    case PartitionerKind::kGinger: return std::make_unique<GingerPartitioner>(options.ginger);
    case PartitionerKind::kChunking: return std::make_unique<ChunkingPartitioner>();
    case PartitionerKind::kOblivious:
    case PartitionerKind::kGrid:
    case PartitionerKind::kHybrid:
    case PartitionerKind::kHdrf:
      return make_streaming_partitioner(kind, options.hybrid, options.hdrf);
  }
  throw std::invalid_argument("make_partitioner: unknown kind");
}

std::span<const PartitionerKind> all_partitioner_kinds() {
  static constexpr std::array<PartitionerKind, 5> kinds = {
      PartitionerKind::kRandomHash, PartitionerKind::kOblivious, PartitionerKind::kGrid,
      PartitionerKind::kHybrid, PartitionerKind::kGinger};
  return kinds;
}

std::span<const PartitionerKind> extended_partitioner_kinds() {
  static constexpr std::array<PartitionerKind, 7> kinds = {
      PartitionerKind::kRandomHash, PartitionerKind::kOblivious,  PartitionerKind::kGrid,
      PartitionerKind::kHybrid,     PartitionerKind::kGinger,
      PartitionerKind::kChunking,   PartitionerKind::kHdrf};
  return kinds;
}

std::vector<PartitionerKind> applicable_partitioner_kinds(MachineId num_machines) {
  std::vector<PartitionerKind> kinds;
  const auto side =
      static_cast<MachineId>(std::lround(std::sqrt(static_cast<double>(num_machines))));
  const bool square = side * side == num_machines;
  for (const PartitionerKind kind : all_partitioner_kinds()) {
    if (kind == PartitionerKind::kGrid && !square) continue;
    kinds.push_back(kind);
  }
  return kinds;
}

}  // namespace pglb
