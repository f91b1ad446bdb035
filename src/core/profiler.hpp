#pragma once
// Offline profiling (Sec. III-B, Fig. 7a): time each application on each
// synthetic proxy on ONE machine per type — individually, so no
// communication interferes — and record the runtimes in the TimeDatabase,
// the one CCR pool.  The simulated kernel's work does not depend on the
// machine, so each (application, graph) runs once and is priced for every
// machine type.  Profiling is a one-time cost per (application, machine
// type); the pool is reused across every future input graph and cluster
// composition.

#include <span>
#include <vector>

#include "cluster/groups.hpp"
#include "core/proxy_suite.hpp"
#include "core/time_database.hpp"
#include "machine/app_profile.hpp"
#include "util/deadline.hpp"

namespace pglb {

class ThreadPool;

/// Seed of the random-hash partition inside every profiling pass.  Fixed by
/// design, NOT plumbed from the pipeline seed: a profile entry must be a pure
/// function of (machine class, app, proxy) so that (a) the service's profile
/// cache — whose key deliberately carries no seed — always serves bytes
/// identical to a fresh run, and (b) CCR stays a hardware property rather
/// than a sampling artifact.  On a one-machine cluster the partition is
/// degenerate anyway (every edge lands on machine 0), so no information is
/// lost.  tests/test_profiler.cpp pins this contract.
inline constexpr std::uint64_t kProfilingPartitionSeed = 0;

/// Virtual-time runtime of `app` on `graph` executed on a single machine of
/// type `spec` (a one-machine cluster: no mirrors, no communication).
/// `scale` is the down-scaling factor of `graph` for trait re-inflation.
/// The kernel run checks `cancel` before it starts (cooperative deadline
/// support) and carries the "profiler.cell" fault-injection site.
double profile_single_machine(const MachineSpec& spec, AppKind app,
                              const EdgeList& graph, double scale,
                              const CancelToken* cancel = nullptr);

/// Fill `pool` for `cluster` (Sec. III-B, Fig. 7a right): every app x every
/// proxy x every machine type of the cluster, skipping the cells `pool`
/// already holds, so a second pass, or a composition change among known
/// types, costs nothing and only new machine types are profiled.  Each
/// (app, proxy) that lacks a type runs its kernel once and prices it for
/// every missing type (engine.hpp's price).  Returns the number of cells
/// priced.  The runs fan out over `thread_pool` (nullptr = the global pool)
/// into per-run slots and are recorded after the fan-out, so the pool is
/// bit-identical at any thread count.  `cancel` is polled per kernel run and
/// per cell; a fired token (or an injected fault) aborts the pass before
/// anything is recorded.  Throws std::invalid_argument, before profiling,
/// when two different specs in `cluster` share a name: the pool keys on the
/// name, so one would silently overwrite the other.
std::size_t profile_cluster(TimeDatabase& pool, const Cluster& cluster,
                            const ProxySuite& suite, std::span<const AppKind> apps,
                            ThreadPool* thread_pool = nullptr,
                            const CancelToken* cancel = nullptr);

/// Profile using an arbitrary graph instead of the proxies (the "real graph"
/// CCR of Fig. 8, the oracle estimator, the planning service's per-class
/// profile).  Runs the kernel once and prices it per machine group; returns
/// per-group times, each bit-identical to profile_single_machine on the
/// group's representative.
std::vector<double> profile_groups_on_graph(const Cluster& cluster, AppKind app,
                                            const EdgeList& graph, double scale,
                                            const CancelToken* cancel = nullptr);

}  // namespace pglb
