#include "core/proxy_suite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gen/powerlaw.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {

/// Index of the stock (Table II) proxy nearest `alpha`; ties go to the first.
std::size_t nearest_stock(double alpha) {
  const auto stock = synthetic_graph_entries();
  return static_cast<std::size_t>(
      std::min_element(stock.begin(), stock.end(), [&](const auto& a, const auto& b) {
        return std::abs(a.paper_alpha - alpha) < std::abs(b.paper_alpha - alpha);
      }) - stock.begin());
}

double stock_alpha(double alpha) {
  return synthetic_graph_entries()[nearest_stock(alpha)].paper_alpha;
}

bool stock_covers(double alpha) {
  return std::abs(stock_alpha(alpha) - alpha) <= ProxySuite::kCoverageMargin;
}

}  // namespace

double proxy_alpha_for(double alpha) {
  if (std::isnan(alpha)) throw std::invalid_argument("proxy_alpha_for: alpha is NaN");
  if (stock_covers(alpha)) return stock_alpha(alpha);
  constexpr double kStep = ProxySuite::kCoverageMargin;
  double point = std::clamp(std::round(alpha / kStep) * kStep,
                            ProxySuite::kMinLatticeAlpha, ProxySuite::kMaxLatticeAlpha);
  // The nearest multiple can lie inside a stock margin (2.6 rounds to 2.5,
  // which 2.3 covers): step on the way alpha lies, away from the stock proxy,
  // so every lattice answer is a fixed point.
  while (stock_covers(point)) point += alpha < point ? -kStep : kStep;
  return point;
}

ProxySuite::ProxySuite(double scale, std::uint64_t seed, ThreadPool* pool)
    : scale_(scale), seed_(seed) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("ProxySuite: scale must be in (0, 1]");
  }
  // The three Table II proxies are independent generator runs (seed_ + index),
  // so they build concurrently into fixed slots; per-proxy generation seconds
  // fold in index order afterwards.  Results match the serial build exactly.
  const auto entries = synthetic_graph_entries();
  proxies_.resize(entries.size());
  std::vector<double> seconds(entries.size(), 0.0);
  parallel_for(pool_or_global(pool), entries.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const Stopwatch timer;
                   proxies_[i] = make_proxy(entries[i].paper_alpha, seed_ + i, pool);
                   seconds[i] = timer.seconds();
                 }
               });
  for (const double s : seconds) generation_seconds_ += s;
}

ProxySuite::Proxy ProxySuite::make_proxy(double alpha, std::uint64_t seed,
                                         ThreadPool* pool,
                                         const CancelToken* cancel) const {
  // Cancellation is checked once up front: generation either runs to
  // completion (output identical to an undeadlined run) or never starts.
  check_cancel(cancel, "proxy.gen");
  fault_point("proxy.gen");
  check_cancel(cancel, "proxy.gen");  // a stall may have eaten the budget
  // arg = alpha in milli-units (spans carry one integer payload).
  PGLB_TRACE_SPAN_ARG("proxy.generate", "proxy",
                      static_cast<std::uint64_t>(alpha * 1000.0));
  global_registry().count("proxy.generated");
  PowerLawConfig config;
  config.num_vertices = static_cast<VertexId>(std::max<double>(
      1000.0, std::round(3'200'000.0 * scale_)));
  config.alpha = alpha;
  config.seed = seed;
  Proxy proxy;
  proxy.alpha = alpha;
  proxy.graph = generate_powerlaw(config, pool);
  proxy.stats = compute_stats(proxy.graph);
  return proxy;
}

const ProxySuite::Proxy& ProxySuite::nearest(double alpha) const {
  return proxies_.at(nearest_stock(alpha));
}

const ProxySuite::Proxy& ProxySuite::proxy(double proxy_alpha, const CancelToken* cancel) {
  if (proxy_alpha_for(proxy_alpha) != proxy_alpha) {
    throw std::invalid_argument("ProxySuite::proxy: " + std::to_string(proxy_alpha) +
                                " is neither a stock nor a lattice alpha");
  }
  if (stock_covers(proxy_alpha)) return nearest(proxy_alpha);
  const auto index = static_cast<long>(proxy_alpha / kCoverageMargin);
  const std::lock_guard<std::mutex> lock(lattice_mutex_);
  auto it = lattice_.find(index);
  if (it == lattice_.end()) {
    const Stopwatch timer;
    it = lattice_.emplace(index, make_proxy(proxy_alpha, shard_seed(seed_, index), nullptr,
                                            cancel)).first;
    generation_seconds_ += timer.seconds();
  }
  return it->second;
}

}  // namespace pglb
