#pragma once
// The planning service's brain: one thread-safe API over the whole
// proxy-guided pipeline.  A request names a cluster (catalog machine names),
// an application, and the input graph's statistics; the planner answers with
// per-machine CCR weights, a recommended partitioner, and predicted
// makespan / replication / energy / cost — without ever seeing the graph,
// exactly the property that makes the paper's method deployable as a
// service.
//
// The expensive stage (synthetic-proxy profiling, Sec. III-B) is memoized in
// an LRU cache keyed on the request's ProfileKey (machine-class set, app,
// proxy alpha); repeated requests over known machine classes reduce to
// arithmetic.  All derived numbers are computed from the cached ProfileEntry
// alone, so a cached plan is byte-identical to a freshly profiled one.

#include <memory>

#include "core/proxy_suite.hpp"
#include "service/metrics.hpp"
#include "service/profile_cache.hpp"
#include "service/profile_key.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

class Cluster;

struct PlannerOptions {
  /// Proxy down-scaling factor (trait re-inflation keeps predictions at
  /// paper scale; smaller = cheaper profiling on a miss).
  double proxy_scale = 1.0 / 256.0;
  std::uint64_t proxy_seed = 17;
  std::size_t cache_capacity = 64;
  /// Worker threads for proxy generation and delta partition metrics.  0 shares the
  /// process-wide pool (PGLB_THREADS env, default hardware concurrency); > 0
  /// gives this planner its own pool of that size.  Responses are
  /// bit-identical at any setting.
  unsigned threads = 0;
  /// Deadline applied to requests that carry no timeout_ms of their own.
  /// 0 = no deadline (docs/ROBUSTNESS.md).
  std::uint64_t default_timeout_ms = 0;
  /// Per-profile-key circuit breaker configuration (threshold, cooldown,
  /// injectable clock) — forwarded to the profile cache.
  BreakerOptions breaker;
};

class Planner {
 public:
  explicit Planner(PlannerOptions options = {}, ServiceMetrics* metrics = nullptr);

  /// Serve one request.  Request-level problems (unknown machine name, ...)
  /// come back as error responses; this never throws for bad requests.
  /// Thread-safe; concurrent calls that miss on the same profile key block
  /// on a single profiling run (single-flight).
  ///
  /// Resilience semantics (docs/ROBUSTNESS.md):
  ///  - the request's timeout_ms (or options.default_timeout_ms) arms a
  ///    cooperative deadline; expiry yields a typed "timeout" response;
  ///  - a profiling failure, injected fault, or open circuit breaker yields a
  ///    DEGRADED ok-response: thread-count heuristic weights (bit-identical
  ///    to the ThreadCountEstimator baseline) stamped degraded="thread_count"
  ///    (or "uniform" if even the heuristic fails).
  PlanResponse plan(const PlanRequest& request);

  /// Stable cache key a request resolves to.  Pure: it generates nothing and
  /// touches no cache.
  std::string profile_key(const PlanRequest& request) const {
    return ProfileKey::of(request).encode();
  }

  ProfileCacheStats cache_stats() const { return cache_.stats(); }
  const PlannerOptions& options() const noexcept { return options_; }

  /// Explicitly evict one profile key (delta-driven staleness; the next plan
  /// over the key re-profiles).  Counts cache.invalidations when an entry was
  /// actually removed.  Returns ProfileCache::invalidate's result.
  bool invalidate_profile(const std::string& key);

  /// Per-key invalidation generations, key-sorted (metrics payload).
  std::vector<std::pair<std::string, std::uint64_t>> cache_generations() const {
    return cache_.generations();
  }

  // --- durable warm state (docs/PERSIST.md) --------------------------------

  /// Completed cache entries in recency order — what a snapshot serializes.
  std::vector<ProfileCache::ExportedEntry> export_cache() const {
    return cache_.export_entries();
  }

  /// Re-insert a restored entry (no eviction, no hit/miss accounting).
  /// Restored entries feed the SAME deterministic arithmetic as fresh
  /// profiles, so a restored plan is byte-identical to a fresh one.
  bool import_cache_entry(const std::string& key, ProfileCache::EntryPtr entry,
                          std::uint64_t hits) {
    return cache_.import_entry(key, std::move(entry), hits);
  }

  /// The `limit` hottest cache keys with hit counts (warm_keys responses).
  std::vector<std::pair<std::string, std::uint64_t>> hot_keys(std::size_t limit) const {
    return cache_.hot_keys(limit);
  }

  /// The pool this planner fans work out on (its own, or the global one).
  /// Shared with every pipeline stage the planner drives.
  ThreadPool& thread_pool() noexcept { return pool_or_global(owned_pool_.get()); }

 private:
  ProfileCache::EntryPtr profile(const ProfileKey& key, const CancelToken* cancel);

  /// Fallback plan when profiling is unavailable (failure, fault, breaker
  /// open): thread-count weights, or uniform if even those fail.
  PlanResponse degraded_plan(const PlanRequest& request, const Cluster& cluster,
                             double alpha, double proxy_alpha);

  PlannerOptions options_;
  ServiceMetrics* metrics_;

  /// Present only when options_.threads > 0; declared before suite_ so proxy
  /// generation can already fan out over it during construction.
  std::unique_ptr<ThreadPool> owned_pool_;

  ProxySuite suite_;

  ProfileCache cache_;
};

}  // namespace pglb
