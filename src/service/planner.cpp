#include "service/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/cluster.hpp"
#include "core/ccr.hpp"
#include "core/profiler.hpp"
#include "core/time_database.hpp"
#include "cost/cost_model.hpp"
#include "gen/alpha_solver.hpp"
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

/// Sorted, deduplicated machine-class names — the cluster-composition-free
/// identity the profile cache keys on.
std::vector<std::string> machine_classes(const std::vector<std::string>& machines) {
  std::vector<std::string> classes = machines;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  return classes;
}

std::string join_classes(const std::vector<std::string>& classes) {
  std::string out;
  for (const std::string& c : classes) {
    if (!out.empty()) out.push_back('+');
    out += c;
  }
  return out;
}

/// Paper guidance (Fig. 9): the high-degree-aware streaming cuts win on
/// power-law graphs; a single machine needs no vertex cut at all.
PartitionerKind recommend_partitioner(const PlanRequest& request,
                                      MachineId num_machines) {
  if (request.partitioner) return *request.partitioner;
  if (num_machines == 1) return PartitionerKind::kChunking;
  return PartitionerKind::kHybrid;
}

}  // namespace

double Planner::resolve_proxy_alpha(double alpha, const CancelToken* cancel) {
  std::lock_guard<std::mutex> lock(suite_mutex_);
  return suite_.ensure_coverage(alpha, cancel).alpha;
}

double Planner::request_alpha(const PlanRequest& request) {
  if (request.alpha) return *request.alpha;
  PGLB_TRACE_SPAN("planner.alpha", "planner");
  const auto vertices = static_cast<VertexId>(
      std::min<std::uint64_t>(request.vertices, std::numeric_limits<VertexId>::max()));
  return fit_alpha_clamped(vertices, request.edges);
}

std::string Planner::profile_key(const PlanRequest& request) {
  const double proxy_alpha = resolve_proxy_alpha(request_alpha(request));
  return join_classes(machine_classes(request.machines)) + "|" +
         to_string(request.app) + "|" + canonical_alpha(proxy_alpha);
}

ProfileCache::EntryPtr Planner::profile(const std::vector<std::string>& classes,
                                        AppKind app, double proxy_alpha,
                                        const std::string& key,
                                        const CancelToken* cancel) {
  PGLB_TRACE_SPAN("planner.profile", "planner");
  bool computed = false;
  auto entry_ptr = cache_.get(key, [&]() -> ProfileCache::EntryPtr {
    computed = true;
    const StageTimer timer(metrics_, "profile");

    // Snapshot the proxy under the suite lock (ensure_coverage from another
    // thread may reallocate the proxy vector), then profile lock-free.
    EdgeList proxy_graph{0};
    GraphStats proxy_stats;
    {
      std::lock_guard<std::mutex> lock(suite_mutex_);
      const ProxySuite::Proxy& proxy = suite_.nearest(proxy_alpha);
      proxy_graph = proxy.graph;
      proxy_stats = proxy.stats;
    }

    auto entry = std::make_shared<ProfileEntry>();
    entry->proxy_alpha = proxy_alpha;
    entry->proxy_full_edges =
        static_cast<double>(proxy_stats.num_edges) / options_.proxy_scale;
    entry->proxy_full_vertices =
        static_cast<double>(proxy_stats.num_vertices) / options_.proxy_scale;
    entry->proxy_total_degree = total_degree_histogram(proxy_graph);
    // Distinct class names are distinct specs, so each class is its own
    // machine group, in class order: one kernel run on the proxy, priced
    // for each class.
    const std::vector<double> class_seconds =
        profile_groups_on_graph(cluster_from_names(classes), app, proxy_graph,
                                options_.proxy_scale, cancel);
    for (std::size_t i = 0; i < classes.size(); ++i) {
      entry->class_times.emplace_back(classes[i], class_seconds[i]);
    }
    if (metrics_ != nullptr) {
      metrics_->count("profile_runs", classes.size());
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
    const double alpha = request_alpha(request);
    double proxy_alpha = 0.0;
    ProfileCache::EntryPtr entry;
    try {
      proxy_alpha = resolve_proxy_alpha(alpha, &token);
      const auto classes = machine_classes(request.machines);
      const std::string key = join_classes(classes) + "|" + to_string(request.app) +
                              "|" + canonical_alpha(proxy_alpha);
      entry = profile(classes, request.app, proxy_alpha, key, &token);
    } catch (const CancelledError&) {
      throw;  // deadline expiry is a typed timeout, never a degraded plan
    } catch (const std::exception&) {
      // Profiling failed (injected fault, generator error, breaker open):
      // fall back rather than fail — a heuristic plan beats no plan.
      return degraded_plan(request, cluster, alpha, proxy_alpha);
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
    response.proxy_alpha = proxy_alpha;
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
