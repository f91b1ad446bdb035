#pragma once
// Factory over the five partitioning algorithms the paper evaluates
// (Fig. 9's x-axis groups).

#include <memory>
#include <span>
#include <string>

#include "partition/ginger.hpp"
#include "partition/incremental.hpp"
#include "partition/partitioner.hpp"

namespace pglb {

enum class PartitionerKind {
  // The paper's five algorithms (Sec. II).
  kRandomHash,
  kOblivious,
  kGrid,
  kHybrid,
  kGinger,
  // Extensions: contiguous chunking (GraphChi-style control baseline) and
  // HDRF (Petroni et al. streaming vertex-cut).
  kChunking,
  kHdrf,
};

const char* to_string(PartitionerKind kind);
PartitionerKind partitioner_from_string(const std::string& name);

struct PartitionerOptions {
  HybridOptions hybrid;
  GingerOptions ginger;
  HdrfOptions hdrf;
};

std::unique_ptr<Partitioner> make_partitioner(PartitionerKind kind,
                                              const PartitionerOptions& options = {});

/// The paper's five kinds in paper order (random, oblivious, grid, hybrid,
/// ginger) — what the figure benches iterate.
std::span<const PartitionerKind> all_partitioner_kinds();

/// Paper's five plus the extensions (chunking, hdrf).
std::span<const PartitionerKind> extended_partitioner_kinds();

/// The kinds applicable to a cluster of `num_machines` machines (Grid is
/// excluded when the count is not a perfect square — Sec. II-B3).
std::vector<PartitionerKind> applicable_partitioner_kinds(MachineId num_machines);

}  // namespace pglb
