#include "service/profile_key.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "core/proxy_suite.hpp"
#include "core/time_database.hpp"
#include "gen/alpha_solver.hpp"
#include "machine/catalog.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"

namespace pglb {

namespace {

bool is_catalog_machine(std::string_view name) {
  const auto machines = table1_machines();
  return std::any_of(machines.begin(), machines.end(),
                     [&](const MachineSpec& m) { return m.name == name; });
}

}  // namespace

ProfileKey ProfileKey::of(const PlanRequest& request, double* fitted_alpha) {
  double alpha = request.alpha.value_or(0.0);
  if (!request.alpha) {
    PGLB_TRACE_SPAN("planner.alpha", "planner");
    alpha = fit_alpha_clamped(static_cast<VertexId>(std::min<std::uint64_t>(
                                  request.vertices, std::numeric_limits<VertexId>::max())),
                              request.edges);
  }
  if (fitted_alpha != nullptr) *fitted_alpha = alpha;
  ProfileKey key{request.machines, request.app, proxy_alpha_for(alpha)};
  std::sort(key.classes.begin(), key.classes.end());
  key.classes.erase(std::unique(key.classes.begin(), key.classes.end()), key.classes.end());
  return key;
}

std::string ProfileKey::encode() const {
  std::string out;
  for (const std::string& c : classes) out.append(out.empty() ? "" : "+").append(c);
  return out.append("|").append(to_string(app)).append("|").append(canonical_alpha(proxy_alpha));
}

std::optional<ProfileKey> ProfileKey::parse(std::string_view text) {
  const std::size_t app_at = text.find('|');
  const std::size_t alpha_at = text.find('|', app_at + 1);
  if (app_at == std::string_view::npos || alpha_at == std::string_view::npos) {
    return std::nullopt;
  }
  ProfileKey key;
  for (std::size_t start = 0; start <= app_at;) {
    const std::size_t end = std::min(text.find('+', start), app_at);
    const std::string_view name = text.substr(start, end - start);
    if (!is_catalog_machine(name) || (!key.classes.empty() && key.classes.back() >= name)) {
      return std::nullopt;  // unknown, unsorted or repeated class
    }
    key.classes.emplace_back(name);
    start = end + 1;
  }
  const auto app = try_app_from_name(std::string(text.substr(app_at + 1, alpha_at - app_at - 1)));
  const auto ec = std::from_chars(text.data() + alpha_at + 1, text.data() + text.size(),
                                  key.proxy_alpha).ec;
  if (!app || ec != std::errc() || !std::isfinite(key.proxy_alpha) ||
      proxy_alpha_for(key.proxy_alpha) != key.proxy_alpha) {
    return std::nullopt;
  }
  key.app = *app;
  // Catches trailing bytes and spellings canonical_alpha() never writes
  // ("2.10", "2.1e0").
  if (key.encode() != text) return std::nullopt;
  return key;
}

PlanRequest ProfileKey::request() const {
  PlanRequest request;
  request.app = app;
  request.machines = classes;
  request.alpha = proxy_alpha;
  return request;
}

}  // namespace pglb
