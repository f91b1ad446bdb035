#pragma once
// The profile-cache identity (docs/SERVICE.md "Caching semantics"): the
// machine classes, app and proxy a plan request is profiled on.  The
// Planner's cache, the router (fleet/hashing.hpp), the delta planner and peer
// warming all name profiles through it; `of()` is pure, so they all agree.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "machine/app_profile.hpp"

namespace pglb {

struct PlanRequest;

struct ProfileKey {
  std::vector<std::string> classes;  ///< machine names, sorted and deduplicated
  AppKind app = AppKind::kPageRank;
  double proxy_alpha = 0.0;  ///< proxy_alpha_for() of the request's alpha

  /// The key of a plan request: its machines' classes, its app, and
  /// proxy_alpha_for() of its alpha (given, or fitted from (V, E), which is
  /// stored in `fitted_alpha` when non-null).  Throws std::invalid_argument
  /// when there is no alpha to fit (no vertices).
  static ProfileKey of(const PlanRequest& request, double* fitted_alpha = nullptr);

  /// "class+class|app|alpha", alpha in canonical_alpha() form.
  std::string encode() const;

  /// Strict inverse of encode(): accepts only catalog machines, sorted and
  /// distinct, a known app and a stock or lattice alpha, spelled exactly as
  /// encode() spells them, so a parsed key re-encodes to `text`.
  static std::optional<ProfileKey> parse(std::string_view text);

  /// A plan request (machines = classes, alpha = proxy_alpha, no graph size)
  /// whose key is this one; planning it recreates the entry the key names.
  PlanRequest request() const;

  bool operator==(const ProfileKey&) const = default;
};

}  // namespace pglb
