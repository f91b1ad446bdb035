#pragma once
// Numerical procedure of Section III-A3: compute the power-law exponent alpha
// of a graph from only |V| and |E|.
//
// The degree distribution is modelled as the truncated discrete power law
//     P(d) = d^-alpha / sum_{i=1..D} i^-alpha ,   d in [1, D]
// (Eq. 4).  Its first moment (Eq. 5) is equated with the empirical mean
// degree |E| / |V| (Eq. 6), and alpha is found as the root of
//     F(alpha) = sum_d d^(1-alpha) / sum_i i^-alpha - |E|/|V|       (Eq. 7)
// by Newton's method with the analytic derivative.
//
// The moments sum d = 1..16 term by term and take the rest of the support in
// closed form (Euler-Maclaurin), so one fit costs microseconds at any D, in
// line with the paper's "less than 1 ms".

#include <cstdint>

#include "graph/types.hpp"

namespace pglb {

/// Largest degree the truncated power law supports: the proxy generator's
/// degree cap and the fit's truncation point D = min(|V| - 1, this).
inline constexpr std::uint64_t kMaxDegreeSupport = 1'000'000;

struct AlphaSolverOptions {
  /// Truncation point D of the degree support.  0 means "derive from the
  /// vertex count" (min(|V| - 1, kMaxDegreeSupport)).
  std::uint64_t degree_support = 0;
  double initial_alpha = 2.0;
  double tolerance = 1e-10;       ///< on |F(alpha)|
  int max_iterations = 200;
  double min_alpha = 1.01;        ///< clamp range for Newton steps
  double max_alpha = 6.0;
};

struct AlphaResult {
  double alpha = 0.0;
  int iterations = 0;
  double residual = 0.0;   ///< |F(alpha)| at the returned point
  bool converged = false;
};

/// First moment E[d] of the truncated power law with exponent alpha and
/// support [1, D] (Eq. 5).
double powerlaw_mean_degree(double alpha, std::uint64_t degree_support);

/// Solve Eq. 7 for alpha given vertex and edge counts.
/// Throws std::invalid_argument for degenerate inputs (no vertices, or a mean
/// degree outside what the truncated power law can represent).
AlphaResult solve_alpha(VertexId num_vertices, EdgeId num_edges,
                        const AlphaSolverOptions& options = {});

/// Pipeline-safe variant: graphs denser or sparser than the truncated power
/// law can represent (e.g. near-complete test graphs) clamp to the range
/// boundary instead of throwing.  Only a zero-vertex graph still throws.
double fit_alpha_clamped(VertexId num_vertices, EdgeId num_edges,
                         const AlphaSolverOptions& options = {});

}  // namespace pglb
