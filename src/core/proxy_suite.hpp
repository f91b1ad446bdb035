#pragma once
// The deployed proxy set (Sec. III-A): three synthetic power-law graphs
// (alpha 1.95 / 2.1 / 2.3, Table II) generated once and reused for every
// profiling pass.  An input alpha outside their coverage is profiled on an
// extra proxy (Sec. III-A3) at a fixed lattice point, whatever came before.

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "gen/corpus.hpp"
#include "graph/stats.hpp"
#include "util/deadline.hpp"

namespace pglb {

class ThreadPool;

class ProxySuite {
 public:
  struct Proxy {
    double alpha = 0.0;
    EdgeList graph;
    GraphStats stats;
  };

  /// A stock proxy covers input alphas within this gap; it is also the step
  /// of the lattice that covers the rest.
  static constexpr double kCoverageMargin = 0.25;
  /// Lattice ends.  By alpha ~50 a degree above 1 has probability ~2^-50, so
  /// plans stop moving well below the top.
  static constexpr double kMinLatticeAlpha = 1.25;
  static constexpr double kMaxLatticeAlpha = 64.0;

  /// Generate the three Table II proxies at `scale`.  The proxies are
  /// independent generator runs (seed + index) built concurrently over `pool`
  /// (nullptr = the global pool); graphs and stats are bit-identical at any
  /// thread count.
  explicit ProxySuite(double scale = kDefaultScale, std::uint64_t seed = 17,
                      ThreadPool* pool = nullptr);

  /// The three stock (Table II) proxies.
  std::span<const Proxy> proxies() const noexcept { return proxies_; }
  double scale() const noexcept { return scale_; }

  /// Stock proxy whose alpha is closest to `alpha`.
  const Proxy& nearest(double alpha) const;

  /// The proxy at a proxy_alpha_for() value (std::invalid_argument for any
  /// other alpha): a stock proxy, or a lattice proxy generated once, on first
  /// use, with seed shard_seed(seed, alpha / kCoverageMargin).  Thread-safe;
  /// the proxy never changes, so callers read it without a lock.  `cancel` is
  /// polled before generation starts (the "proxy.gen" site).
  const Proxy& proxy(double proxy_alpha, const CancelToken* cancel = nullptr);

  /// Host seconds spent generating proxies so far (the paper reports 67 s for
  /// its three full-size proxies).
  double generation_seconds() const noexcept { return generation_seconds_; }

 private:
  Proxy make_proxy(double alpha, std::uint64_t seed, ThreadPool* pool,
                   const CancelToken* cancel = nullptr) const;

  double scale_ = 1.0;
  std::uint64_t seed_ = 0;
  std::vector<Proxy> proxies_;
  std::mutex lattice_mutex_;       ///< guards lattice_ inserts
  std::map<long, Proxy> lattice_;  ///< by lattice index; map nodes never move
  std::atomic<double> generation_seconds_ = 0.0;
};

/// The proxy alpha an input alpha is profiled on: the nearest stock alpha
/// within kCoverageMargin, else the nearest multiple of the margin in
/// [kMinLatticeAlpha, kMaxLatticeAlpha] that no stock proxy covers.  Pure and
/// idempotent; canonical_alpha() prints every answer exactly.  Throws
/// std::invalid_argument on NaN.
double proxy_alpha_for(double alpha);

}  // namespace pglb
