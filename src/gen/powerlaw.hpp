#pragma once
// Synthetic power-law proxy graph generator — Algorithm 1 of the paper.
//
// For each vertex u, an out-degree is drawn from the truncated discrete
// power law P(d) ~ d^-alpha via the cdf ("multinomial(cdf)" in the paper's
// pseudocode), then each of its out-neighbours is produced as
// (u + h) mod N for a hash value h.  The paper's listing uses a single
// constant hash; a literal reading would emit `degree` copies of one edge, so
// — like the authors' actual implementation must — we advance a deterministic
// per-edge hash stream (seeded once per generator run).  Self-loops are
// skipped per Section III-A2.

#include <cstdint>

#include "graph/edge_list.hpp"

namespace pglb {

class ThreadPool;

struct PowerLawConfig {
  VertexId num_vertices = 0;
  double alpha = 2.1;
  /// Truncation of the degree distribution.  0 = min(num_vertices - 1,
  /// kMaxDegreeSupport).
  std::uint64_t max_degree = 0;
  std::uint64_t seed = 42;
  bool allow_self_loops = false;
};

/// Expected edge count of the generator: |V| * E[d] for the truncated power
/// law.  Used by the proxy suite to size proxies against Table II.
EdgeId expected_powerlaw_edges(const PowerLawConfig& config);

/// Generate the proxy graph.  Deterministic for a fixed config: degrees come
/// from the seeded serial stream, edge targets from a stateless per-edge hash
/// stream, so the result is bit-identical at any `pool` thread count (nullptr
/// = the global pool).
EdgeList generate_powerlaw(const PowerLawConfig& config, ThreadPool* pool = nullptr);

/// Invert expected_powerlaw_edges: find the alpha whose expected edge count
/// matches `target_edges` (uses the Eq. 7 Newton solver).
double alpha_for_target_edges(VertexId num_vertices, EdgeId target_edges);

}  // namespace pglb
