#pragma once
// Machine-type-keyed profiling database: the one CCR pool.
//
// Section III-B observes that single-machine proxy runtimes are a property of
// the (application, proxy, machine type) triple, independent of cluster
// composition: "varying the cluster composition among existing machines does
// not require CCR updates".  Storing raw times per machine type (rather than
// per-cluster CCR vectors) makes that literal: CCRs for ANY cluster drawn
// from profiled types are derived on demand, and profile_cluster()
// (core/profiler.hpp) profiles only the cells that are missing, i.e. only
// genuinely new machine types.  `pglb profile` persists it as TSV.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "machine/app_profile.hpp"

namespace pglb {

/// Fixed-precision ("%.6g") rendering of a proxy alpha — the canonical form
/// used inside stable profile-cache keys, so 2.1 always maps to "2.1"
/// regardless of how it was computed.
std::string canonical_alpha(double alpha);

class TimeDatabase {
 public:
  struct Key {
    AppKind app = AppKind::kPageRank;
    double proxy_alpha = 0.0;
    std::string machine;  ///< MachineSpec::name

    auto operator<=>(const Key&) const = default;
  };

  /// Store (or overwrite) one runtime.  Throws std::invalid_argument for a
  /// non-finite alpha (a NaN key would break the map's ordering) or a time
  /// that is not finite and positive.
  void record(const Key& key, double seconds);

  std::optional<double> lookup(const Key& key) const;

  /// Proxy alphas present for an app (sorted ascending).
  std::vector<double> alphas_for(AppKind app) const;

  /// The profiled alpha closest to `graph_alpha` (what ccr_for() will use),
  /// or nullopt when the app was never profiled.
  std::optional<double> nearest_alpha(AppKind app, double graph_alpha) const;

  /// Per-machine CCR vector (Eq. 1) for a cluster, using the stored times of
  /// the nearest profiled alpha.  Throws std::out_of_range when a machine
  /// type or the app has never been profiled.
  std::vector<double> ccr_for(const Cluster& cluster, AppKind app,
                              double graph_alpha) const;

  std::size_t size() const noexcept { return times_.size(); }
  const std::map<Key, double>& entries() const noexcept { return times_; }

 private:
  std::map<Key, double> times_;
};

/// TSV persistence: "app \t alpha \t machine \t seconds" per line with a
/// versioned header.  Throws std::runtime_error on IO/parse errors; a row
/// whose alpha is not finite, or whose seconds are not finite and positive,
/// is a parse error that names its line.
void save_time_database(const TimeDatabase& db, const std::string& path);
TimeDatabase load_time_database(const std::string& path);

}  // namespace pglb
