#include "fleet/warming.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <utility>
#include <vector>

#include "fleet/backend.hpp"
#include "fleet/hashing.hpp"
#include "fleet/registry.hpp"
#include "obs/registry.hpp"
#include "service/profile_key.hpp"
#include "service/protocol.hpp"

namespace pglb {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

WarmReport warm_replica(FleetRegistry& fleet, std::size_t newcomer,
                        const WarmingOptions& options,
                        Registry* service_registry) {
  WarmReport report;
  if (options.per_backend_limit == 0 || options.max_prefetch == 0) return report;
  const FleetMembership membership = fleet.membership();
  if (newcomer >= membership.names.size() || membership.names.size() < 2) {
    return report;
  }

  // Phase 1: fan the warm_keys question out to every other eligible peer.
  PlanRequest ask;
  ask.type = RequestType::kWarmKeys;
  ask.limit = options.per_backend_limit;
  std::vector<std::future<std::string>> pending;
  for (std::size_t i = 0; i < membership.names.size(); ++i) {
    if (i == newcomer || !fleet.eligible(i)) continue;
    const std::shared_ptr<Backend> peer = fleet.backend(i);
    if (peer == nullptr) continue;
    ask.id = "warm-" + std::to_string(i);
    try {
      pending.push_back(peer->submit(serialize_request(ask)));
      ++report.peers_asked;
    } catch (const std::exception&) {
      // submit itself failed: the peer contributes nothing
    }
  }

  // Harvest under one shared deadline.  Keys aggregate into a key-sorted map
  // (max hits wins on duplicates) so the candidate order downstream is
  // deterministic regardless of which peer answered first.
  const auto fetch_deadline =
      Clock::now() + std::chrono::milliseconds(options.fetch_timeout_ms);
  std::map<std::string, std::uint64_t> hits_by_key;
  for (std::future<std::string>& future : pending) {
    if (future.wait_until(fetch_deadline) != std::future_status::ready) continue;
    try {
      const std::vector<WarmKey> keys = parse_warm_keys_response(future.get());
      ++report.peers_answered;
      for (const WarmKey& warm : keys) {
        const auto [it, inserted] = hits_by_key.emplace(warm.key, warm.hits);
        if (!inserted) it->second = std::max(it->second, warm.hits);
      }
    } catch (const std::exception&) {
      // BackendError or a malformed report: skip this peer
    }
  }
  report.keys_seen = hits_by_key.size();

  // Phase 2: keep only keys the rendezvous ranking hands to the newcomer —
  // the same ranking the router uses, so warming exactly prefills the slice
  // of key space real traffic will send here.
  std::vector<std::pair<std::string, std::uint64_t>> owned;
  for (const auto& [key, hits] : hits_by_key) {
    const std::vector<std::size_t> ranked =
        rank_backends(key, membership.names, membership.weights);
    if (!ranked.empty() && ranked.front() == newcomer) owned.emplace_back(key, hits);
  }
  report.keys_owned = owned.size();
  std::stable_sort(owned.begin(), owned.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (owned.size() > options.max_prefetch) owned.resize(options.max_prefetch);

  const std::shared_ptr<Backend> target = fleet.backend(newcomer);
  if (target == nullptr || owned.empty()) return report;

  // Phase 3: replay each owned key as a deadline-carrying plan request, so
  // the newcomer's single-flight cache profiles them before real traffic.
  std::vector<std::future<std::string>> prefetches;
  for (std::size_t n = 0; n < owned.size(); ++n) {
    const std::optional<ProfileKey> key = ProfileKey::parse(owned[n].first);
    if (!key) {
      ++report.keys_failed;
      continue;
    }
    PlanRequest request = key->request();
    request.id = "warm-key-" + std::to_string(n);
    if (options.prefetch_timeout_ms > 0) {
      request.timeout_ms = options.prefetch_timeout_ms;
    }
    try {
      prefetches.push_back(target->submit(serialize_request(request)));
    } catch (const std::exception&) {
      ++report.keys_failed;
    }
  }
  const auto prefetch_deadline =
      Clock::now() + std::chrono::milliseconds(options.prefetch_timeout_ms);
  for (std::future<std::string>& future : prefetches) {
    if (future.wait_until(prefetch_deadline) != std::future_status::ready) {
      ++report.keys_failed;
      continue;
    }
    try {
      const PlanResponse response = parse_plan_response(future.get());
      if (response.ok) {
        ++report.keys_warmed;
      } else {
        ++report.keys_failed;
      }
    } catch (const std::exception&) {
      ++report.keys_failed;
    }
  }

  if (report.keys_warmed > 0) {
    global_registry().count("persist.keys_warmed", report.keys_warmed);
    if (service_registry != nullptr) {
      service_registry->count("persist.keys_warmed", report.keys_warmed);
    }
  }
  return report;
}

}  // namespace pglb
