#pragma once
// Request→backend placement for the fleet router (docs/FLEET.md).
//
// Two pieces:
//
//  1. routing_key(request): the request's ProfileKey, so requests that share
//     a backend's profile-cache entry share a routing key, and land where
//     that entry is instead of spraying one profile across the fleet.
//
//  2. rank_backends(key, names, weights): weighted rendezvous (highest random
//     weight) hashing.  Every (key, backend) pair gets an independent hash;
//     the backend with the best score wins.  Removing a backend only moves
//     the keys that backend owned — no global reshuffle — and the per-backend
//     weight skews ownership share in proportion (a CCR-style knob: give a
//     big replica weight 2.0 and it owns ~2x the key space).
//
// Both functions are deterministic and state-free: any router instance, on
// any host, ranks the same fleet identically.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pglb {

struct PlanRequest;

/// FNV-1a 64-bit over the bytes of `text` (stable across platforms; the
/// rendezvous scores must not depend on std::hash).
std::uint64_t hash_bytes(std::string_view text) noexcept;

/// ProfileKey::of(request).encode(), or "dyn|<base>" for a delta request.
/// Throws std::invalid_argument when there is no alpha to fit (a metrics
/// request); the router then keys the line on its raw bytes.
std::string routing_key(const PlanRequest& request);

/// Rendezvous ranking: all backend indices ordered best-first for `key`.
/// `weights` may be empty (uniform) or one positive weight per backend.
/// Score for backend i is -w_i / ln(u_i) with u_i a unit hash of
/// (key, names[i]) — the standard weighted-HRW transform, where backend i's
/// win probability is proportional to w_i.  Ties (identical scores) break by
/// hash then index, so the order is total and deterministic.
std::vector<std::size_t> rank_backends(std::string_view key,
                                       std::span<const std::string> names,
                                       std::span<const double> weights = {});

}  // namespace pglb
