#pragma once
// Shared fixtures/builders for the pglb test suite.

#include <stdlib.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "cluster/cluster.hpp"
#include "graph/edge_list.hpp"
#include "machine/catalog.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace pglb::testing {

/// A directory of its own for one test process: mkdtemp under the system
/// temp root, removed with everything in it on destruction.  Parallel runs
/// (ctest -j, two build trees side by side) never share a path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / ("pglb_" + tag + "_XXXXXX")).string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp " + pattern);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

/// Seeded mutator for fuzzing text parsers: each call derives one input from
/// a corpus entry by a bit flip, a truncation, a splice of two entries, or a
/// swap of one number token for a hostile spelling.  Same seed, same inputs.
class TextMutator {
 public:
  TextMutator(std::vector<std::string> corpus, std::uint64_t seed)
      : corpus_(std::move(corpus)), state_(seed) {}

  std::string next() {
    const std::string& base = pick();
    switch (below(4)) {
      case 0: {  // bit flip
        if (base.empty()) return base;
        std::string out = base;
        out[below(out.size())] ^= static_cast<char>(1u << below(8));
        return out;
      }
      case 1:  // truncation
        return base.substr(0, below(base.size() + 1));
      case 2: {  // splice: a prefix of one entry onto a suffix of another
        const std::string& other = pick();
        return base.substr(0, below(base.size() + 1)) + other.substr(below(other.size() + 1));
      }
      default:
        return swap_number(base);
    }
  }

 private:
  static constexpr std::string_view kNumbers[] = {"nan", "inf",  "-0",    "1e308",
                                                  "2.10", "2.1e0", "-inf", "0x1p1"};

  std::uint64_t below(std::size_t n) { return n == 0 ? 0 : splitmix64(state_++) % n; }
  const std::string& pick() { return corpus_[below(corpus_.size())]; }

  /// Replace the last maximal run of [0-9.eE+-] with a hostile number.
  std::string swap_number(const std::string& base) {
    const auto numeric = [](char c) {
      return std::string_view("0123456789.eE+-").find(c) != std::string_view::npos;
    };
    std::size_t end = base.size();
    while (end > 0 && !numeric(base[end - 1])) --end;
    std::size_t begin = end;
    while (begin > 0 && numeric(base[begin - 1])) --begin;
    const std::string_view number = kNumbers[below(std::size(kNumbers))];
    return base.substr(0, begin) + std::string(number) + base.substr(end);
  }

  std::vector<std::string> corpus_;
  std::uint64_t state_;
};

/// Directed path 0 -> 1 -> ... -> n-1.
inline EdgeList path_graph(VertexId n) {
  EdgeList g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.add(v, v + 1);
  return g;
}

/// Directed cycle over n vertices.
inline EdgeList cycle_graph(VertexId n) {
  EdgeList g(n);
  for (VertexId v = 0; v < n; ++v) g.add(v, (v + 1) % n);
  return g;
}

/// Star: hub 0 -> spokes 1..n-1.
inline EdgeList star_graph(VertexId n) {
  EdgeList g(n);
  for (VertexId v = 1; v < n; ++v) g.add(0, v);
  return g;
}

/// Complete directed graph on n vertices (u != v, both directions).
inline EdgeList complete_graph(VertexId n) {
  EdgeList g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) g.add(u, v);
    }
  }
  return g;
}

/// Single triangle 0-1-2 (directed one way).
inline EdgeList triangle_graph() {
  EdgeList g(3);
  g.add(0, 1);
  g.add(1, 2);
  g.add(2, 0);
  return g;
}

/// Two disjoint triangles {0,1,2} and {3,4,5}.
inline EdgeList two_triangles() {
  EdgeList g(6);
  g.add(0, 1);
  g.add(1, 2);
  g.add(2, 0);
  g.add(3, 4);
  g.add(4, 5);
  g.add(5, 3);
  return g;
}

/// The paper's Case 1 cluster: m4.2xlarge + c4.2xlarge.
inline Cluster case1_cluster() {
  return Cluster({machine_by_name("m4.2xlarge"), machine_by_name("c4.2xlarge")});
}

/// The paper's Case 2 cluster: local Xeon S + L, same frequency.
inline Cluster case2_cluster() {
  return Cluster({machine_by_name("xeon_server_s"), machine_by_name("xeon_server_l")});
}

/// The paper's Case 3 cluster: Xeon S derated to 1.8 GHz + Xeon L.
inline Cluster case3_cluster() {
  return Cluster({with_frequency(machine_by_name("xeon_server_s"), 1.8),
                  machine_by_name("xeon_server_l")});
}

/// Plan requests whose alphas lie outside the stock proxies' coverage, plus
/// the in-coverage alpha 2.5 right after 2.6, whose proxy must not depend on
/// that order.  Given alphas snap to the lattice (1.05 -> 1.25, 2.6 and 2.8
/// -> 2.75, 1e308 -> the top end); the two fitted requests clamp to alpha
/// 1.01 (denser than any power law) and 6 (no edges).  Ids are unique.
inline std::vector<PlanRequest> out_of_coverage_sweep() {
  std::vector<PlanRequest> sweep;
  const auto add = [&](const std::string& id, AppKind app,
                       std::vector<std::string> machines) -> PlanRequest& {
    PlanRequest& request = sweep.emplace_back();
    request.id = id;
    request.app = app;
    request.machines = std::move(machines);
    return request;
  };
  const std::vector<std::string> case1 = {"m4.2xlarge", "c4.2xlarge"};
  for (const double alpha : {1.05, 1.5, 2.6, 2.5, 2.8, 3.0, 3.2, 7.5, 1e308}) {
    add("oc-" + std::to_string(sweep.size()), AppKind::kPageRank, case1).alpha = alpha;
  }
  add("oc-cc-3.0", AppKind::kConnectedComponents, {"c4.xlarge", "c4.4xlarge"}).alpha = 3.0;
  add("oc-sssp-1.5", AppKind::kSssp, {"c4.2xlarge", "m4.2xlarge", "c4.2xlarge"}).alpha = 1.5;
  PlanRequest& dense = add("oc-fit-dense", AppKind::kPageRank, case1);
  dense.vertices = 1'000;
  dense.edges = 1'000'000;
  PlanRequest& edgeless = add("oc-fit-edgeless", AppKind::kColoring, case1);
  edgeless.vertices = 100'000;
  edgeless.edges = 0;
  return sweep;
}

/// A single-machine cluster (profiling runs).
inline Cluster solo_cluster(const std::string& name) {
  return Cluster({machine_by_name(name)});
}

}  // namespace pglb::testing
