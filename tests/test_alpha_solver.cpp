#include "gen/alpha_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/math.hpp"
#include "util/stopwatch.hpp"

namespace pglb {
namespace {

TEST(PowerlawMeanDegree, DecreasesWithAlpha) {
  const std::uint64_t support = 10'000;
  double prev = powerlaw_mean_degree(1.5, support);
  for (double alpha : {1.8, 2.1, 2.5, 3.0}) {
    const double mean = powerlaw_mean_degree(alpha, support);
    EXPECT_LT(mean, prev);
    EXPECT_GT(mean, 1.0);
    prev = mean;
  }
}

TEST(PowerlawMeanDegree, RejectsZeroSupport) {
  EXPECT_THROW(powerlaw_mean_degree(2.0, 0), std::invalid_argument);
}

TEST(SolveAlpha, RoundTripsThroughTheMoment) {
  // For a given alpha, compute the implied mean degree, fabricate (V, E) with
  // that ratio, and check the solver recovers alpha.  This is the defining
  // property of Eq. 7.
  const VertexId v = 1'000'000;
  const AlphaSolverOptions options;
  for (const double alpha : {1.9, 2.0, 2.1, 2.2, 2.3, 2.4}) {
    const std::uint64_t support = std::min<std::uint64_t>(v - 1, kMaxDegreeSupport);
    const double mean = powerlaw_mean_degree(alpha, support);
    const auto edges = static_cast<EdgeId>(std::llround(mean * v));
    const auto result = solve_alpha(v, edges, options);
    EXPECT_TRUE(result.converged) << "alpha=" << alpha;
    EXPECT_NEAR(result.alpha, alpha, 0.01) << "alpha=" << alpha;
  }
}

TEST(SolveAlpha, PaperCorpusFallsInNaturalRange) {
  // Sec. III-A3: natural graphs have alpha roughly in [1.9, 2.4]; our Table
  // II graphs' (V, E) pairs should land in a sane band.
  struct Row {
    VertexId v;
    EdgeId e;
  };
  const Row rows[] = {
      {403'394, 3'387'388},      // amazon
      {3'774'768, 16'518'948},   // citation
      {4'847'571, 68'993'773},   // social network
      {2'394'385, 5'021'410},    // wiki
  };
  for (const Row& r : rows) {
    const auto result = solve_alpha(r.v, r.e);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.alpha, 1.6);
    EXPECT_LT(result.alpha, 3.2);
  }
}

TEST(SolveAlpha, DenserGraphGivesSmallerAlpha) {
  const auto sparse = solve_alpha(1'000'000, 2'000'000);
  const auto dense = solve_alpha(1'000'000, 20'000'000);
  EXPECT_LT(dense.alpha, sparse.alpha);
}

TEST(SolveAlpha, RejectsDegenerateInputs) {
  EXPECT_THROW(solve_alpha(0, 10), std::invalid_argument);
  // Mean degree below 1 is unrepresentable by the truncated power law.
  EXPECT_THROW(solve_alpha(1'000'000, 100), std::invalid_argument);
}

TEST(SolveAlpha, RespectsExplicitSupport) {
  AlphaSolverOptions options;
  options.degree_support = 100;
  const double mean = powerlaw_mean_degree(2.0, 100);
  const auto result =
      solve_alpha(10'000, static_cast<EdgeId>(std::llround(mean * 10'000)), options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.alpha, 2.0, 0.02);
}

TEST(SolveAlpha, ResidualIsTiny) {
  const auto result = solve_alpha(500'000, 5'000'000);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-9);
  EXPECT_LE(result.iterations, 60);
}

TEST(SolveAlpha, IsFastEnoughForOnlineUse) {
  // Sec. III-A3 claims the alpha computation takes < 1 ms.  A fit takes a few
  // microseconds on a 2.1 GHz Xeon; the bound is the paper's, with room for
  // a loaded CI host.
  constexpr int kFits = 200;
  const Stopwatch timer;
  double sink = 0.0;
  for (int i = 0; i < kFits; ++i) {
    sink += fit_alpha_clamped(4'847'571, 68'993'773 + static_cast<EdgeId>(i));
  }
  EXPECT_GT(sink, 0.0);
  EXPECT_LT(timer.milliseconds() / kFits, 1.0);
}

// --- closed form vs the direct sum ------------------------------------------
// The solver sums d = 1..16 term by term and the rest of the support by
// Euler-Maclaurin.  These tests keep the full Kahan direct sum as reference.

struct DirectMoments {
  double s0, s1, ds0, ds1;
};

DirectMoments direct_moments(double alpha, std::uint64_t support) {
  KahanSum s0, s1, ds0, ds1;
  for (std::uint64_t d = 1; d <= support; ++d) {
    const double dd = static_cast<double>(d);
    const double ld = std::log(dd);
    const double p = std::exp(-alpha * ld);
    s0.add(p);
    s1.add(dd * p);
    ds0.add(-ld * p);
    ds1.add(-ld * dd * p);
  }
  return {s0.value(), s1.value(), ds0.value(), ds1.value()};
}

TEST(PowerlawMeanDegree, ClosedFormMatchesTheDirectSum) {
  // One pass over d serves every alpha and every support: the prefix sums
  // are read off at each D in the list.
  constexpr std::uint64_t kSupports[] = {1,      16,     17,      33,       100,
                                         12'799, 65'535, 403'393, 1'000'000};
  std::vector<double> alphas;
  for (int k = 0; 1.01 + 0.02 * k <= 6.0; ++k) alphas.push_back(1.01 + 0.02 * k);
  alphas.push_back(6.0);
  std::vector<KahanSum> s0(alphas.size()), s1(alphas.size());
  std::size_t next = 0;
  double worst = 0.0;
  for (std::uint64_t d = 1; next < std::size(kSupports); ++d) {
    const double dd = static_cast<double>(d);
    const double ld = std::log(dd);
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      const double p = std::exp(-alphas[i] * ld);
      s0[i].add(p);
      s1[i].add(dd * p);
    }
    if (d != kSupports[next]) continue;
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      const double direct = s1[i].value() / s0[i].value();
      const double error = relative_error(powerlaw_mean_degree(alphas[i], d), direct);
      worst = std::max(worst, error);
      EXPECT_LE(error, 1e-13) << "alpha=" << alphas[i] << " D=" << d;
    }
    ++next;
  }
  RecordProperty("worst_relative_error", std::to_string(worst));
}

TEST(SolveAlpha, ClosedFormFitMatchesTheDirectSumRoot) {
  // The direct-sum root, reached by Newton steps on the direct sums from the
  // closed-form fit, must sit within 1e-11 of that fit.
  struct Graph {
    VertexId v;
    EdgeId e;
  };
  std::vector<Graph> graphs = {
      {403'394, 3'387'388},    {3'774'768, 16'518'948},  // Table II
      {4'847'571, 68'993'773}, {2'394'385, 5'021'410},
  };
  for (const VertexId v : {VertexId{1'000}, VertexId{65'536}, VertexId{403'394},
                           VertexId{1'000'000}, VertexId{1'000'002},
                           VertexId{2'394'385}, VertexId{4'999'999}}) {
    for (const double mean : {1.5, 4.0, 8.4, 20.0}) {
      graphs.push_back({v, static_cast<EdgeId>(std::llround(mean * v))});
    }
  }
  const AlphaSolverOptions options;
  for (const Graph& g : graphs) {
    const double fitted = fit_alpha_clamped(g.v, g.e);
    if (fitted == options.min_alpha || fitted == options.max_alpha) continue;
    const std::uint64_t support = std::min<std::uint64_t>(g.v - 1, kMaxDegreeSupport);
    const double target = static_cast<double>(g.e) / static_cast<double>(g.v);
    double root = fitted;
    for (int step = 0; step < 3; ++step) {
      const DirectMoments m = direct_moments(root, support);
      const double f = m.s1 / m.s0 - target;
      if (f == 0.0) break;
      root -= f / ((m.ds1 * m.s0 - m.s1 * m.ds0) / (m.s0 * m.s0));
    }
    EXPECT_LE(std::abs(fitted - root), 1e-11) << "V=" << g.v << " E=" << g.e;
  }
}

}  // namespace
}  // namespace pglb
