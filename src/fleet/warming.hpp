#pragma once
// Router-driven peer warming (docs/PERSIST.md): when a replica joins (or
// re-joins) the fleet, rendezvous hashing hands it a slice of the key space —
// keys its peers have hot profile-cache entries for, which the newcomer would
// otherwise re-profile from scratch on first contact.  Warming closes that
// gap off the hot path:
//
//   1. ask every OTHER eligible replica for its hottest completed profile
//      keys (the warm_keys protocol request, bounded per peer);
//   2. keep only the keys the fleet's weighted rendezvous ranking assigns to
//      the newcomer — warming keys it will never be routed is wasted work;
//   3. replay each surviving key as ProfileKey::request() against the
//      newcomer (hottest first, bounded count, per-request deadline), so its
//      single-flight cache recreates the peer's entries byte for byte before
//      real traffic arrives.  Keys ProfileKey::parse() rejects are skipped.
//
// Every step is deadline-guarded and failure-tolerant: a peer that times out
// or answers garbage contributes nothing, a prefetch that fails is counted
// and skipped.  Warming can only ever improve the newcomer's first-contact
// hit rate — it never blocks routing and never fails the caller.

#include <cstddef>
#include <cstdint>

namespace pglb {

class FleetRegistry;
class Registry;

struct WarmingOptions {
  /// warm_keys `limit` sent to each peer (0 disables warming entirely).
  std::size_t per_backend_limit = 16;
  /// Cap on prefetch plan requests issued to the newcomer.
  std::size_t max_prefetch = 16;
  /// Deadline for harvesting all peers' warm_keys responses.
  std::uint64_t fetch_timeout_ms = 2'000;
  /// Per-prefetch plan deadline (becomes the request's timeout_ms) and the
  /// harvest deadline for the whole prefetch wave.
  std::uint64_t prefetch_timeout_ms = 5'000;
};

/// What one warming pass did — logged by the router/autoscaler and mirrored
/// into the persist.* counters.
struct WarmReport {
  std::size_t peers_asked = 0;     ///< warm_keys requests issued
  std::size_t peers_answered = 0;  ///< parseable warm_keys reports harvested
  std::size_t keys_seen = 0;       ///< unique keys across all reports
  std::size_t keys_owned = 0;      ///< keys rendezvous-ranked to the newcomer
  std::size_t keys_warmed = 0;     ///< prefetch plans that came back ok
  std::size_t keys_failed = 0;     ///< prefetches that errored or timed out
};

/// Run one warming pass for fleet member `newcomer`.  Never throws; a fleet
/// of one (or an out-of-range index) is a no-op report.  Increments the
/// persist.keys_warmed counter (globally, plus `service_registry` when
/// given) once per successful prefetch.
WarmReport warm_replica(FleetRegistry& fleet, std::size_t newcomer,
                        const WarmingOptions& options = {},
                        Registry* service_registry = nullptr);

}  // namespace pglb
