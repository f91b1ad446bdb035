#pragma once
// Capability estimators: the three partition-weight policies the paper
// compares (plus an oracle used for accuracy evaluation).
//
//  - uniform:      default PowerGraph (homogeneity assumption);
//  - thread-count: prior work [5] — read hardware configuration only;
//  - proxy-ccr:    this paper — profiled CCRs from the synthetic proxy pool,
//                  selected per application and per input-graph alpha;
//  - oracle:       CCR profiled on the actual input graph (the "real" CCR of
//                  Fig. 8; an upper bound no deployable system can reach,
//                  since it would require running the job to place the job).

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "core/profiler.hpp"
#include "graph/stats.hpp"
#include "machine/app_profile.hpp"

namespace pglb {

class CapabilityEstimator {
 public:
  virtual ~CapabilityEstimator() = default;

  virtual std::string name() const = 0;

  /// Normalised per-machine partition shares for running `app` on `graph`.
  virtual std::vector<double> weights(const Cluster& cluster, AppKind app,
                                      const EdgeList& graph,
                                      const GraphStats& stats) const = 0;
};

class UniformEstimator final : public CapabilityEstimator {
 public:
  std::string name() const override { return "uniform"; }
  std::vector<double> weights(const Cluster& cluster, AppKind app, const EdgeList& graph,
                              const GraphStats& stats) const override;
};

class ThreadCountEstimator final : public CapabilityEstimator {
 public:
  std::string name() const override { return "thread_count"; }
  std::vector<double> weights(const Cluster& cluster, AppKind app, const EdgeList& graph,
                              const GraphStats& stats) const override;
};

class ProxyCcrEstimator final : public CapabilityEstimator {
 public:
  /// The pool must hold every machine type of the clusters it is asked about
  /// (profile_cluster fills it).
  explicit ProxyCcrEstimator(const TimeDatabase& pool) : pool_(&pool) {}

  std::string name() const override { return "proxy_ccr"; }
  std::vector<double> weights(const Cluster& cluster, AppKind app, const EdgeList& graph,
                              const GraphStats& stats) const override;

 private:
  const TimeDatabase* pool_;
};

class OracleEstimator final : public CapabilityEstimator {
 public:
  /// `scale` is the corpus down-scaling factor (for trait re-inflation).
  explicit OracleEstimator(double scale) : scale_(scale) {}

  std::string name() const override { return "oracle"; }
  std::vector<double> weights(const Cluster& cluster, AppKind app, const EdgeList& graph,
                              const GraphStats& stats) const override;

 private:
  double scale_;
};

}  // namespace pglb
