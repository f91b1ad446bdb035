#include "fleet/registry.hpp"

#include <algorithm>
#include <chrono>

#include "util/json.hpp"

namespace pglb {

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view to_string(BackendState state) noexcept {
  switch (state) {
    case BackendState::kUp: return "up";
    case BackendState::kDown: return "down";
    case BackendState::kDraining: return "draining";
  }
  return "unknown";
}

FleetRegistry::FleetRegistry(FleetOptions options) : options_(std::move(options)) {
  if (!options_.clock_ms) options_.clock_ms = steady_now_ms;
}

std::size_t FleetRegistry::add(std::shared_ptr<Backend> backend, double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t index = backends_.size();
  names_.push_back(backend->name());
  weights_.push_back(weight > 0.0 ? weight : 1.0);
  backends_.push_back(std::move(backend));
  health_.emplace_back();
  return index;
}

std::size_t FleetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backends_.size();
}

std::shared_ptr<Backend> FleetRegistry::backend(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backends_[index];
}

FleetMembership FleetRegistry::membership() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FleetMembership snapshot{names_, weights_};
  // Straggler weight decay applies at snapshot time, so a recovery restores
  // the configured weight with no stored state to undo.
  for (std::size_t i = 0; i < health_.size(); ++i) {
    if (health_[i].degraded) {
      snapshot.weights[i] *= options_.straggler_weight_factor;
    }
  }
  return snapshot;
}

std::string FleetRegistry::name(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_[index];
}

std::uint64_t FleetRegistry::backoff_ms(std::uint64_t consecutive_failures) const {
  std::uint64_t window = options_.base_backoff_ms;
  // Doubling capped at max; the shift bound avoids overflow on long outages.
  for (std::uint64_t i = 1; i < consecutive_failures && i < 32; ++i) {
    window *= 2;
    if (window >= options_.max_backoff_ms) return options_.max_backoff_ms;
  }
  return window < options_.max_backoff_ms ? window : options_.max_backoff_ms;
}

bool FleetRegistry::eligible(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Health& h = health_[index];
  if (h.draining) return false;
  return options_.clock_ms() >= h.not_before_ms;
}

bool FleetRegistry::probe_due(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Health& h = health_[index];
  if (h.state == BackendState::kDown) return options_.clock_ms() >= h.not_before_ms;
  return true;  // up and draining backends are always probed (liveness)
}

void FleetRegistry::record_success(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  h.state = h.draining ? BackendState::kDraining : BackendState::kUp;
  h.consecutive_failures = 0;
  h.not_before_ms = 0;
  h.queue_depth = 0;  // a served request means the shed condition cleared
  ++h.successes;
}

void FleetRegistry::record_failure(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  h.state = h.draining ? BackendState::kDraining : BackendState::kDown;
  ++h.consecutive_failures;
  ++h.failures;
  h.not_before_ms = options_.clock_ms() + backoff_ms(h.consecutive_failures);
}

bool FleetRegistry::record_latency(std::size_t index, double elapsed_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  const std::uint64_t window = std::max<std::uint64_t>(options_.straggler_min_samples, 1);
  if (h.recent.size() < window) {
    h.recent.push_back(elapsed_ms);
  } else {
    h.recent[h.latency_samples % window] = elapsed_ms;
  }
  h.floor_ms = *std::min_element(h.recent.begin(), h.recent.end());
  ++h.latency_samples;
  if (h.latency_samples < options_.straggler_min_samples) return false;

  // Judge against the median of the PEERS' floors (self excluded, so one slow
  // backend cannot drag the yardstick toward itself), each peer mature.
  std::vector<double> peers;
  peers.reserve(health_.size());
  for (std::size_t i = 0; i < health_.size(); ++i) {
    if (i == index) continue;
    if (health_[i].latency_samples >= options_.straggler_min_samples) {
      peers.push_back(health_[i].floor_ms);
    }
  }
  if (peers.empty()) return false;
  const auto mid = peers.begin() + static_cast<std::ptrdiff_t>(peers.size() / 2);
  std::nth_element(peers.begin(), mid, peers.end());
  const double median = *mid;
  if (median <= 0.0) return false;

  if (!h.degraded && h.floor_ms > options_.straggler_factor * median) {
    h.degraded = true;
    return true;
  }
  if (h.degraded && h.floor_ms < options_.straggler_recovery_factor * median) {
    h.degraded = false;
  }
  return false;
}

void FleetRegistry::defer(std::size_t index, std::uint64_t retry_after_ms,
                          std::uint64_t queue_depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  const std::uint64_t until = options_.clock_ms() + retry_after_ms;
  if (until > h.not_before_ms) h.not_before_ms = until;
  if (queue_depth > 0) h.queue_depth = queue_depth;
}

std::uint64_t FleetRegistry::begin_attempt(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++health_[index].inflight;
}

std::uint64_t FleetRegistry::end_attempt(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  if (h.inflight > 0) --h.inflight;
  return h.inflight;
}

void FleetRegistry::set_draining(std::size_t index, bool draining) {
  std::lock_guard<std::mutex> lock(mutex_);
  Health& h = health_[index];
  h.draining = draining;
  if (draining) {
    h.state = BackendState::kDraining;
  } else {
    h.state = h.consecutive_failures > 0 ? BackendState::kDown : BackendState::kUp;
  }
}

BackendStatus FleetRegistry::status(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Health& h = health_[index];
  return {names_[index],          weights_[index], h.state,
          h.consecutive_failures, h.not_before_ms, h.successes,
          h.failures,             h.inflight,      h.queue_depth,
          h.degraded,             h.floor_ms,      h.latency_samples};
}

std::string FleetRegistry::status_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "[";
  for (std::size_t i = 0; i < health_.size(); ++i) {
    const Health& h = health_[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    append_json_string(out, names_[i]);
    out += ",\"state\":\"";
    out += to_string(h.state);
    out += "\",\"weight\":";
    append_json_number(out, weights_[i]);
    out += ",\"successes\":";
    append_json_number(out, static_cast<double>(h.successes));
    out += ",\"failures\":";
    append_json_number(out, static_cast<double>(h.failures));
    out += ",\"consecutive_failures\":";
    append_json_number(out, static_cast<double>(h.consecutive_failures));
    out += ",\"inflight\":";
    append_json_number(out, static_cast<double>(h.inflight));
    out += ",\"queue_depth\":";
    append_json_number(out, static_cast<double>(h.queue_depth));
    out += ",\"degraded\":";
    out += h.degraded ? "true" : "false";
    out += ",\"floor_ms\":";
    append_json_number(out, h.floor_ms);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

}  // namespace pglb
