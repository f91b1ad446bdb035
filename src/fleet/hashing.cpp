#include "fleet/hashing.hpp"

#include <algorithm>
#include <cmath>

#include "service/profile_key.hpp"
#include "service/protocol.hpp"
#include "util/hash.hpp"

namespace pglb {

std::uint64_t hash_bytes(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string routing_key(const PlanRequest& request) {
  // Delta requests are STATEFUL: every delta for a base must land on the
  // replica holding that base's live graph and scorer state, so they route
  // by base name alone (docs/DYNAMIC.md) — updates omit the creation
  // parameters a profile key needs.
  if (request.type == RequestType::kDelta) return "dyn|" + request.base;
  return ProfileKey::of(request).encode();
}

std::vector<std::size_t> rank_backends(std::string_view key,
                                       std::span<const std::string> names,
                                       std::span<const double> weights) {
  struct Ranked {
    double score;
    std::uint64_t hash;
    std::size_t index;
  };
  const std::uint64_t key_hash = hash_bytes(key);
  std::vector<Ranked> ranked;
  ranked.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::uint64_t h = hash_combine(key_hash, hash_bytes(names[i]));
    // Clamp the unit hash away from 0 so ln() stays finite; 1 is unreachable
    // (hash_to_unit yields [0, 1)).
    const double u = std::max(hash_to_unit(h), 0x1.0p-53);
    const double w = i < weights.size() && weights[i] > 0.0 ? weights[i] : 1.0;
    ranked.push_back({-w / std::log(u), h, i});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.hash != b.hash) return a.hash > b.hash;
    return a.index < b.index;
  });
  std::vector<std::size_t> order;
  order.reserve(ranked.size());
  for (const Ranked& r : ranked) order.push_back(r.index);
  return order;
}

}  // namespace pglb
