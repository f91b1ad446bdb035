#include "gen/powerlaw.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gen/alpha_solver.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pglb {

namespace {

std::uint64_t effective_max_degree(const PowerLawConfig& config) {
  std::uint64_t cap = config.max_degree;
  if (cap == 0) {
    cap = config.num_vertices > 1 ? static_cast<std::uint64_t>(config.num_vertices) - 1 : 1;
    cap = std::min(cap, kMaxDegreeSupport);
  }
  return std::max<std::uint64_t>(cap, 1);
}

DiscreteSampler degree_sampler(double alpha, std::uint64_t max_degree) {
  // pdf[i] = i^-alpha for degree i in [1, max_degree] (Algorithm 1 lines 2-5).
  std::vector<double> pdf(max_degree);
  for (std::uint64_t d = 1; d <= max_degree; ++d) {
    pdf[d - 1] = std::pow(static_cast<double>(d), -alpha);
  }
  return DiscreteSampler(pdf);
}

/// Vertices per parallel shard of the edge fan-out.
constexpr std::size_t kVertexGrain = 4096;

}  // namespace

EdgeId expected_powerlaw_edges(const PowerLawConfig& config) {
  if (config.num_vertices == 0) return 0;
  const double mean = powerlaw_mean_degree(config.alpha, effective_max_degree(config));
  return static_cast<EdgeId>(std::llround(mean * static_cast<double>(config.num_vertices)));
}

EdgeList generate_powerlaw(const PowerLawConfig& config, ThreadPool* pool) {
  if (config.num_vertices == 0) return EdgeList(0);

  const std::uint64_t max_degree = effective_max_degree(config);
  const DiscreteSampler sampler = degree_sampler(config.alpha, max_degree);
  const std::uint64_t n = config.num_vertices;

  if (n == 1) {
    // Degenerate case (possible self-loop skips): keep the trivial serial path.
    EdgeList graph(config.num_vertices);
    Rng rng(config.seed);
    std::uint64_t edge_counter = 0;
    const std::uint64_t degree = sampler.sample(rng) + 1;
    for (std::uint64_t d = 0; d < degree; ++d) {
      (void)hash_u64(edge_counter++, config.seed);
      if (config.allow_self_loops) graph.add(0, 0);
    }
    return graph;
  }

  // Degree pass: one sampler draw per vertex from the single seeded stream
  // (exactly the serial draw order), recorded so the edge fan-out below can
  // run sharded.  prefix[u] is vertex u's slot in the per-edge hash stream.
  Rng rng(config.seed);
  std::vector<std::uint32_t> degrees(config.num_vertices);
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(config.num_vertices) + 1, 0);
  for (VertexId u = 0; u < config.num_vertices; ++u) {
    const std::uint64_t degree = sampler.sample(rng) + 1;  // sampler index 0 == degree 1
    degrees[u] = static_cast<std::uint32_t>(degree);
    prefix[u + 1] = prefix[u] + degree;
  }

  // Edge fan-out (Algorithm 1 line 10): v = (u + hash) mod N with the hash
  // advanced per edge.  The stream is indexed by the global edge counter, so
  // every shard derives its edges statelessly and writes a disjoint slice —
  // the output is bit-identical to the serial pass at any thread count.
  std::vector<Edge> edges(prefix[config.num_vertices]);
  parallel_for(pool_or_global(pool), config.num_vertices, kVertexGrain,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t u = begin; u < end; ++u) {
                   std::uint64_t edge_counter = prefix[u];
                   for (std::uint32_t d = 0; d < degrees[u]; ++d) {
                     const std::uint64_t h = hash_u64(edge_counter, config.seed);
                     // Offset in [1, n-1] avoids self-loops by construction
                     // when disallowed.
                     std::uint64_t offset = h % n;
                     if (!config.allow_self_loops && offset == 0) {
                       offset = 1 + (h >> 32) % (n - 1);
                     }
                     edges[edge_counter] =
                         Edge{static_cast<VertexId>(u),
                              static_cast<VertexId>((u + offset) % n)};
                     ++edge_counter;
                   }
                 }
               });
  return EdgeList(config.num_vertices, std::move(edges));
}

double alpha_for_target_edges(VertexId num_vertices, EdgeId target_edges) {
  return solve_alpha(num_vertices, target_edges).alpha;
}

}  // namespace pglb
