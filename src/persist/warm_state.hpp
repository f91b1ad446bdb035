#pragma once
// Warm-state payloads over the snapshot container (docs/PERSIST.md): what a
// planning replica persists on SIGTERM and lazily reloads on boot so a
// restart does not trade a healthy cache for a profiling stampede.
//
// Two sections:
//  - kProfileCache: the completed ProfileCache entries (key, hit count, and
//    the full CCR profile including the proxy degree histogram) in recency
//    order.  An entry restores to EXACTLY the inputs the deterministic
//    planner arithmetic consumes, so a plan served from a restored entry is
//    byte-identical to one served from a fresh profile.
//  - kDynamicState (optional): the delta planner's base registry — live
//    graphs, maintained assignments, scorer state, drift — so a restarted
//    replica resumes its delta streams without re-ingesting history
//    (docs/DYNAMIC.md).  Old binaries CRC-check and skip this section.
// A kTimeDatabase section written by older builds is CRC-checked and skipped
// like any unknown type: its times are already inside the cache entries.
//
// Load policy (the Distributed-CC save/load_checkpoint shape): a missing
// file is a quiet cold start; a corrupt, truncated, or future-version file
// is a LOGGED cold start that bumps persist.snapshot_rejected — never a
// crash, and never a partially trusted restore (decode validates every
// value before anything touches the planner).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "persist/snapshot.hpp"
#include "service/profile_cache.hpp"

namespace pglb {

class Planner;
class Registry;

namespace dynamic {
class DeltaPlanner;
}  // namespace dynamic

namespace persist {

/// One decoded cache entry, pre-validated and ready to import.
struct RestoredCacheEntry {
  std::string key;
  std::uint64_t hits = 0;
  std::shared_ptr<ProfileEntry> entry;
};

std::string encode_profile_cache_section(
    std::span<const ProfileCache::ExportedEntry> entries);

/// Decode + validate a kProfileCache payload.  Throws SnapshotError on any
/// malformed or implausible value (non-finite times, empty keys, ...).
std::vector<RestoredCacheEntry> decode_profile_cache_section(
    std::string_view payload);

/// Where a replica's snapshot lives inside its --snapshot-dir.
std::string warm_snapshot_path(const std::string& dir);

/// Outcome of one save/load, for logging and tests.
struct SnapshotIoResult {
  bool ok = false;
  /// Load only: the file existed but was corrupt/truncated/future-version
  /// (persist.snapshot_rejected was bumped).  A missing file is ok=false
  /// with rejected=false — the quiet cold start.
  bool rejected = false;
  std::uint64_t generation = 0;
  std::size_t bytes = 0;
  std::size_t cache_entries = 0;
  std::size_t dynamic_bases = 0;
  std::string error;
};

/// Snapshot the planner's warm state into `<dir>/warm.snap` (atomic
/// write-rename; generation = previous generation + 1).  Counts
/// persist.snapshots_written / persist.snapshot_bytes_written into the
/// global registry and, when given, `service_registry` (the per-server
/// registry surfaced by metrics responses).  Never throws.
/// When `delta` is given, its ready bases are serialized into a
/// kDynamicState section (omitted entirely when the registry is empty, so
/// delta-free snapshots keep their pre-dynamic bytes).
SnapshotIoResult save_warm_snapshot(const Planner& planner, const std::string& dir,
                                    Registry* service_registry = nullptr,
                                    const dynamic::DeltaPlanner* delta = nullptr);

/// Restore `<dir>/warm.snap` into the planner: cache entries re-inserted in
/// recency order (stopping, without error, at capacity).  Counts
/// persist.snapshots_loaded / persist.snapshot_bytes_loaded /
/// persist.keys_restored on success and persist.snapshot_rejected on a
/// corrupt file.  Never throws.
/// When `delta` is given and the file carries a kDynamicState section, the
/// base registry is restored through DeltaPlanner::restore_state (live bases
/// win over snapshot ones; a defective section rejects the WHOLE load, same
/// as any other section).  Counts persist.bases_restored.
SnapshotIoResult load_warm_snapshot(Planner& planner, const std::string& dir,
                                    Registry* service_registry = nullptr,
                                    dynamic::DeltaPlanner* delta = nullptr);

}  // namespace persist
}  // namespace pglb
