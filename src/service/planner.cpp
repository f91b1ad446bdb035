#include "service/planner.hpp"

#include <algorithm>
#include <limits>

#include "cluster/cluster.hpp"
#include "core/ccr.hpp"
#include "core/profiler.hpp"
#include "cost/cost_model.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/replication_model.hpp"
#include "partition/weights.hpp"

namespace pglb {

Planner::Planner(PlannerOptions options, ServiceMetrics* metrics)
    : options_(options),
      metrics_(metrics),
      owned_pool_(options.threads > 0 ? std::make_unique<ThreadPool>(options.threads)
                                      : nullptr),
      suite_(options.proxy_scale, options.proxy_seed, owned_pool_.get()),
      cache_(options.cache_capacity, options.breaker) {}

namespace {

/// Paper guidance (Fig. 9): the high-degree-aware streaming cuts win on
/// power-law graphs; a single machine needs no vertex cut at all.
PartitionerKind recommend_partitioner(const PlanRequest& request,
                                      MachineId num_machines) {
  if (request.partitioner) return *request.partitioner;
  if (num_machines == 1) return PartitionerKind::kChunking;
  return PartitionerKind::kHybrid;
}

}  // namespace

ProfileCache::EntryPtr Planner::profile(const ProfileKey& key, const CancelToken* cancel) {
  PGLB_TRACE_SPAN("planner.profile", "planner");
  bool computed = false;
  auto entry_ptr = cache_.get(key.encode(), [&]() -> ProfileCache::EntryPtr {
    computed = true;
    const StageTimer timer(metrics_, "profile");

    // A lattice proxy is generated here, inside the miss, on its first use.
    // Proxies never change once made, so the graph is read without a lock.
    const ProxySuite::Proxy& proxy = suite_.proxy(key.proxy_alpha, cancel);
    auto entry = std::make_shared<ProfileEntry>();
    entry->proxy_alpha = key.proxy_alpha;
    entry->proxy_full_edges =
        static_cast<double>(proxy.stats.num_edges) / options_.proxy_scale;
    entry->proxy_full_vertices =
        static_cast<double>(proxy.stats.num_vertices) / options_.proxy_scale;
    entry->proxy_total_degree = total_degree_histogram(proxy.graph);
    // Distinct class names are distinct specs, so each class is its own
    // machine group, in class order: one kernel run on the proxy, priced
    // for each class.
    const std::vector<double> class_seconds =
        profile_groups_on_graph(cluster_from_names(key.classes), key.app, proxy.graph,
                                options_.proxy_scale, cancel);
    for (std::size_t i = 0; i < key.classes.size(); ++i) {
      entry->class_times.emplace_back(key.classes[i], class_seconds[i]);
    }
    if (metrics_ != nullptr) {
      metrics_->count("profile_runs", key.classes.size());
    }
    return entry;
  }, cancel);
  if (metrics_ != nullptr) {
    metrics_->count(computed ? "profile_cache_misses" : "profile_cache_hits");
  }
  return entry_ptr;
}

bool Planner::invalidate_profile(const std::string& key) {
  const bool removed = cache_.invalidate(key);
  if (removed) {
    if (metrics_ != nullptr) metrics_->count("cache.invalidations");
    global_registry().count("cache.invalidations");
  }
  return removed;
}

PlanResponse Planner::degraded_plan(const PlanRequest& request,
                                    const Cluster& cluster, double alpha,
                                    double proxy_alpha) {
  // CCR-free fallback (ISSUE: graceful degradation).  The weights are the
  // thread-count heuristic of LeBeane et al. — computed by the very same
  // thread_count_weights() the ThreadCountEstimator baseline uses, so a
  // degraded plan is bit-identical to that baseline.  Predicted
  // makespan/energy/cost stay 0: without a profile there is nothing honest to
  // predict, and clients must not mistake a heuristic plan for a modelled one.
  PlanResponse response;
  response.id = request.id;
  response.ok = true;
  response.status = PlanStatus::kOk;
  response.app = to_string(request.app);
  response.fitted_alpha = alpha;
  response.proxy_alpha = proxy_alpha;
  try {
    response.weights = thread_count_weights(cluster);
    // Pseudo-CCR proportional to thread counts (slowest class = 1.0, matching
    // the Eq. 1 convention) so downstream consumers see a consistent shape.
    double min_threads = std::numeric_limits<double>::infinity();
    for (const MachineSpec& machine : cluster.machines()) {
      min_threads = std::min(min_threads, static_cast<double>(machine.compute_threads));
    }
    response.ccr.reserve(cluster.size());
    for (const MachineSpec& machine : cluster.machines()) {
      response.ccr.push_back(static_cast<double>(machine.compute_threads) / min_threads);
    }
    response.degraded = "thread_count";
  } catch (const std::exception&) {
    response.weights = uniform_weights(cluster.size());
    response.ccr.assign(cluster.size(), 1.0);
    response.degraded = "uniform";
  }
  response.partitioner = to_string(recommend_partitioner(request, cluster.size()));
  if (metrics_ != nullptr) metrics_->count("planner.degraded");
  global_registry().count("planner.degraded");
  return response;
}

PlanResponse Planner::plan(const PlanRequest& request) {
  PlanResponse response;
  response.id = request.id;
  // Arm the request's cooperative deadline.  The token travels two ways:
  // explicitly into the profiling fan-out (thread-locals do not cross pool
  // workers) and ambiently via CancelScope for poll_cancellation() sites on
  // this thread (partitioner loops).
  const std::uint64_t timeout_ms =
      request.timeout_ms ? *request.timeout_ms : options_.default_timeout_ms;
  const CancelToken token(timeout_ms > 0 ? Deadline::after_ms(timeout_ms)
                                         : Deadline::never());
  const CancelScope scope(token);
  try {
    const Cluster cluster = cluster_from_names(request.machines);
    double alpha = 0.0;
    const ProfileKey key = ProfileKey::of(request, &alpha);
    ProfileCache::EntryPtr entry;
    try {
      entry = profile(key, &token);
    } catch (const CancelledError&) {
      throw;  // deadline expiry is a typed timeout, never a degraded plan
    } catch (const std::exception&) {
      // Profiling failed (injected fault, generator error, breaker open):
      // fall back rather than fail — a heuristic plan beats no plan.
      return degraded_plan(request, cluster, alpha, key.proxy_alpha);
    }

    // Expand per-class proxy runtimes to the cluster's machine order.
    std::vector<double> times(cluster.size(), 0.0);
    for (MachineId m = 0; m < cluster.size(); ++m) {
      const std::string& name = cluster.machine(m).name;
      for (const auto& [class_name, seconds] : entry->class_times) {
        if (class_name == name) {
          times[m] = seconds;
          break;
        }
      }
    }

    response.ok = true;
    response.status = PlanStatus::kOk;
    response.app = to_string(request.app);
    response.fitted_alpha = alpha;
    response.proxy_alpha = key.proxy_alpha;
    response.ccr = ccr_from_times(times);
    response.weights = shares_from_capabilities(response.ccr);
    response.partitioner =
        to_string(recommend_partitioner(request, cluster.size()));
    response.replication_factor =
        expected_replication_factor(entry->proxy_total_degree, response.weights);

    // Compute-bound makespan estimate: machine m handles share w_m of a graph
    // (E_req / E_proxy) times the profiled proxy's size, so it finishes in
    // t_m * w_m * ratio; the barrier waits for the slowest.  Under CCR
    // weights all terms are equal — the balanced ideal the paper targets.
    // When the request carries no graph size, estimates are at proxy scale.
    const double edges_req = request.edges > 0 ? static_cast<double>(request.edges)
                                               : entry->proxy_full_edges;
    const double work_ratio = edges_req / entry->proxy_full_edges;
    double makespan = 0.0;
    for (MachineId m = 0; m < cluster.size(); ++m) {
      makespan = std::max(makespan, times[m] * response.weights[m] * work_ratio);
    }
    response.makespan_seconds = makespan;

    double total_watts = 0.0;
    for (const MachineSpec& machine : cluster.machines()) {
      total_watts += machine.tdp_watts;
    }
    response.energy_joules = makespan * total_watts;
    response.cost_usd = cluster_cost_per_task(cluster, makespan);
  } catch (const CancelledError& e) {
    response = PlanResponse{};
    response.id = request.id;
    response.ok = false;
    response.status = PlanStatus::kTimeout;
    response.error = e.what();
    if (metrics_ != nullptr) metrics_->count("service.timeouts");
    global_registry().count("service.timeouts");
  } catch (const std::exception& e) {
    response = PlanResponse{};
    response.id = request.id;
    response.ok = false;
    response.status = PlanStatus::kError;
    response.error = e.what();
    if (metrics_ != nullptr) metrics_->count("plan_errors");
  }
  return response;
}

}  // namespace pglb
