#include "gen/alpha_solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/math.hpp"

namespace pglb {

namespace {

struct Moments {
  double s0 = 0.0;   ///< sum d^-alpha
  double s1 = 0.0;   ///< sum d^(1-alpha)
  double ds0 = 0.0;  ///< d/dalpha s0 = -sum ln(d) d^-alpha
  double ds1 = 0.0;  ///< d/dalpha s1 = -sum ln(d) d^(1-alpha)
};

/// Degrees summed term by term; the rest of the support comes from
/// Euler-Maclaurin, whose remainder after the B12 term is below 1e-20 of the
/// sum from d = 17 on for every beta the solver visits.
constexpr std::uint64_t kExactHead = 16;

/// B_2k / (2k)! for k = 1..6: the Euler-Maclaurin correction coefficients.
constexpr std::array<double, 6> kBernoulliOverFactorial = {
    1.0 / 12.0,         -1.0 / 720.0,          1.0 / 30240.0,
    -1.0 / 1209600.0,   1.0 / 47900160.0,      -691.0 / 1307674368000.0};

/// expm1(z) / z, continuous at z = 0.
double expm1_over(double z) { return z == 0.0 ? 1.0 : std::expm1(z) / z; }

/// (z e^z - expm1(z)) / z^2 = integral_0^1 s e^(zs) ds, continuous at z = 0.
/// The direct form cancels for small |z|, so there it sums the series
/// sum_n z^n (n + 1) / (n + 2)!, whose terms past n = 18 are below 1e-17.
double log_weighted_kernel(double z) {
  if (std::abs(z) >= 1.0) return (z * std::exp(z) - std::expm1(z)) / (z * z);
  double factorial = 1.0;  // (n + 2)! for n = 18 down to 0, built upward first
  for (int k = 2; k <= 20; ++k) factorial *= k;
  double result = 0.0;
  for (int n = 18; n >= 0; --n) {
    result = result * z + static_cast<double>(n + 1) / factorial;
    factorial /= static_cast<double>(n + 2);
  }
  return result;
}

struct TailSums {
  double power = 0.0;      ///< sum_{d=a..b} d^-beta
  double log_power = 0.0;  ///< sum_{d=a..b} ln(d) d^-beta
};

/// Euler-Maclaurin over integers a..b (a < b) of f(x) = x^-beta and
/// g(x) = ln(x) x^-beta = -df/dbeta: the integral, both endpoint halves and
/// the B2..B12 corrections.  With u = 1 - beta, L = ln(b / a), z = uL:
///   integral f = a^u L expm1(z) / z
///   integral g = a^u (ln(a) L expm1(z) / z + L^2 (z e^z - expm1(z)) / z^2)
/// f^(n)(x) = (-1)^n P_n x^(-beta-n) with P_n = beta (beta + 1)...(beta + n - 1),
/// g^(n)(x) = (-1)^n x^(-beta-n) (P_n ln(x) - P_n').
TailSums euler_maclaurin_tail(double beta, double a, double b) {
  const double ln_a = std::log(a);
  const double ln_b = std::log(b);
  const double L = ln_b - ln_a;
  const double u = 1.0 - beta;
  const double z = u * L;
  const double a_u = std::exp(u * ln_a);
  const double e1 = expm1_over(z);
  const double integral_f = a_u * L * e1;
  const double integral_g = a_u * (ln_a * L * e1 + L * L * log_weighted_kernel(z));

  const double fa = std::exp(-beta * ln_a);
  const double fb = std::exp(-beta * ln_b);
  double small_f = 0.5 * (fa + fb);
  double small_g = 0.5 * (ln_a * fa + ln_b * fb);

  // Derivatives n = 1..11; the odd ones take the corrections.
  double p = 1.0, dp = 0.0;  // P_n, P_n' at n = 0
  double xa = fa, xb = fb;   // a^(-beta-n), b^(-beta-n) at n = 0
  for (int n = 1; n <= 2 * static_cast<int>(kBernoulliOverFactorial.size()) - 1; ++n) {
    dp = dp * (beta + n - 1) + p;
    p *= beta + n - 1;
    xa /= a;
    xb /= b;
    if (n % 2 == 0) continue;
    const double c = kBernoulliOverFactorial[static_cast<std::size_t>(n / 2)];
    small_f -= c * p * (xb - xa);  // (-1)^n = -1
    small_g -= c * (xb * (p * ln_b - dp) - xa * (p * ln_a - dp));
  }
  return TailSums{integral_f + small_f, integral_g + small_g};
}

Moments compute_moments(double alpha, std::uint64_t support) {
  static const std::array<double, kExactHead + 1> kLog = [] {
    std::array<double, kExactHead + 1> logs{};
    for (std::size_t d = 1; d <= kExactHead; ++d) logs[d] = std::log(static_cast<double>(d));
    return logs;
  }();
  KahanSum s0, s1, ds0, ds1;
  const std::uint64_t head = std::min(support, kExactHead);
  for (std::uint64_t d = 1; d <= head; ++d) {
    const double dd = static_cast<double>(d);
    const double ld = kLog[d];
    const double p = std::exp(-alpha * ld);  // d^-alpha
    const double q = dd * p;                 // d^(1-alpha)
    s0.add(p);
    s1.add(q);
    ds0.add(-ld * p);
    ds1.add(-ld * q);
  }
  if (support > kExactHead) {
    const double a = static_cast<double>(kExactHead + 1);
    const double b = static_cast<double>(support);
    const TailSums t0 = euler_maclaurin_tail(alpha, a, b);
    const TailSums t1 = euler_maclaurin_tail(alpha - 1.0, a, b);
    s0.add(t0.power);
    s1.add(t1.power);
    ds0.add(-t0.log_power);
    ds1.add(-t1.log_power);
  }
  return Moments{s0.value(), s1.value(), ds0.value(), ds1.value()};
}

std::uint64_t effective_support(VertexId num_vertices, const AlphaSolverOptions& options) {
  if (options.degree_support > 0) return options.degree_support;
  const std::uint64_t support =
      num_vertices > 1 ? static_cast<std::uint64_t>(num_vertices) - 1 : 1;
  return std::min(support, kMaxDegreeSupport);
}

}  // namespace

double powerlaw_mean_degree(double alpha, std::uint64_t degree_support) {
  if (degree_support == 0) throw std::invalid_argument("powerlaw_mean_degree: support must be >= 1");
  const Moments m = compute_moments(alpha, degree_support);
  return m.s1 / m.s0;
}

AlphaResult solve_alpha(VertexId num_vertices, EdgeId num_edges,
                        const AlphaSolverOptions& options) {
  if (num_vertices == 0) throw std::invalid_argument("solve_alpha: graph has no vertices");
  const std::uint64_t support = effective_support(num_vertices, options);
  const double target_mean =
      static_cast<double>(num_edges) / static_cast<double>(num_vertices);

  // The truncated power law's mean degree spans (1, mean at min_alpha);
  // reject targets we cannot represent.
  const double max_mean = powerlaw_mean_degree(options.min_alpha, support);
  if (target_mean < 1.0 || target_mean > max_mean) {
    throw std::invalid_argument(
        "solve_alpha: mean degree " + std::to_string(target_mean) +
        " outside representable range (1, " + std::to_string(max_mean) + ")");
  }

  AlphaResult result;
  double alpha = std::clamp(options.initial_alpha, options.min_alpha, options.max_alpha);
  for (int it = 0; it < options.max_iterations; ++it) {
    const Moments m = compute_moments(alpha, support);
    const double f = m.s1 / m.s0 - target_mean;
    result.alpha = alpha;
    result.iterations = it + 1;
    result.residual = std::abs(f);
    if (result.residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    // F' = (s1' s0 - s1 s0') / s0^2
    const double fprime = (m.ds1 * m.s0 - m.s1 * m.ds0) / (m.s0 * m.s0);
    if (fprime == 0.0 || !std::isfinite(fprime)) break;
    double next = alpha - f / fprime;
    if (!std::isfinite(next)) break;
    // Dampen runaway steps: bisect toward the clamp boundary instead of
    // jumping outside the bracket.
    next = std::clamp(next, options.min_alpha, options.max_alpha);
    if (next == alpha) {
      result.converged = result.residual < options.tolerance;
      return result;
    }
    alpha = next;
  }
  return result;
}

double fit_alpha_clamped(VertexId num_vertices, EdgeId num_edges,
                         const AlphaSolverOptions& options) {
  if (num_vertices == 0) {
    throw std::invalid_argument("fit_alpha_clamped: graph has no vertices");
  }
  const std::uint64_t support = effective_support(num_vertices, options);
  const double target_mean =
      static_cast<double>(num_edges) / static_cast<double>(num_vertices);
  if (target_mean >= powerlaw_mean_degree(options.min_alpha, support)) {
    return options.min_alpha;  // denser than any representable power law
  }
  if (target_mean <= powerlaw_mean_degree(options.max_alpha, support)) {
    return options.max_alpha;  // sparser than any representable power law
  }
  return solve_alpha(num_vertices, num_edges, options).alpha;
}

}  // namespace pglb
