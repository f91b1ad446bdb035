#include "dynamic/delta_planner.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"
#include "partition/metrics.hpp"
#include "util/hash.hpp"

namespace pglb::dynamic {

DeltaPlanner::DeltaPlanner(Planner& planner, DeltaOptions options,
                           ServiceMetrics* metrics)
    : planner_(planner), options_(options), metrics_(metrics) {}

void DeltaPlanner::count(const char* name, std::uint64_t value) {
  if (metrics_ != nullptr) metrics_->count(name, value);
}

std::size_t DeltaPlanner::base_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return bases_.size();
}

std::vector<std::string> DeltaPlanner::base_names() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(bases_.size());
  for (const auto& [name, _] : bases_) names.push_back(name);
  return names;
}

std::string DeltaPlanner::handle(const PlanRequest& request) {
  if (request.type != RequestType::kDelta) {
    return serialize_error(request.id, "delta planner received a non-delta request");
  }
  count("delta.requests");
  if (request.mutations.size() > options_.max_batch) {
    count("delta.rejected");
    return serialize_error(request.id,
                           "mutation batch of " + std::to_string(request.mutations.size()) +
                               " exceeds the server cap of " +
                               std::to_string(options_.max_batch));
  }

  const bool carries_creation = !request.machines.empty();
  BaseState* base = nullptr;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = bases_.find(request.base);
    if (it != bases_.end()) {
      base = it->second.get();
    } else {
      if (!carries_creation) {
        count("delta.rejected");
        return serialize_error(request.id, "unknown base '" + request.base +
                                               "' (creation requires 'app' and 'machines')");
      }
      if (bases_.size() >= options_.max_bases) {
        count("delta.rejected");
        return serialize_error(request.id,
                               "base registry full (" + std::to_string(options_.max_bases) +
                                   " bases); delete or reuse an existing base");
      }
      base = bases_.emplace(request.base, std::make_unique<BaseState>())
                 .first->second.get();
    }
  }

  // Per-base serialization: deltas to one base are totally ordered, so the
  // maintained assignment is deterministic at any server thread count.
  std::lock_guard<std::mutex> base_lock(base->mutex);
  if (!base->ready) {
    if (!carries_creation) {
      count("delta.rejected");
      return serialize_error(request.id, "base '" + request.base +
                                             "' is not initialized (creation requires "
                                             "'app' and 'machines')");
    }
    return handle_creation(*base, request.base, request);
  }
  if (carries_creation &&
      (base->app != request.app || base->machines != request.machines)) {
    count("delta.rejected");
    return serialize_error(request.id, "base '" + request.base +
                                           "' already exists with different "
                                           "'app'/'machines'");
  }
  if (request.partitioner && *request.partitioner != base->kind) {
    count("delta.rejected");
    return serialize_error(request.id,
                           "cannot change the partitioner of existing base '" +
                               request.base + "'");
  }
  return handle_update(*base, request.base, request);
}

std::string DeltaPlanner::handle_creation(BaseState& base, const std::string& name,
                                          const PlanRequest& request) {
  // A retried creation (previous attempt failed mid-way) starts clean.
  base.graph = LiveGraph{};
  base.owners.clear();
  base.inc.reset();
  base.app = request.app;
  base.machines = request.machines;
  base.seed = request.seed ? *request.seed : options_.default_seed;

  try {
    base.graph.apply(request.mutations);
  } catch (const MutationError& e) {
    count("delta.rejected");
    return serialize_error(request.id, e.what());
  }
  count("delta.mutations", request.mutations.size());
  if (base.graph.live_edge_count() == 0 || base.graph.live_vertex_count() == 0) {
    count("delta.rejected");
    return serialize_error(request.id,
                           "base '" + name + "' has no live edges to plan");
  }

  PlanRequest synthetic;
  synthetic.type = RequestType::kPlan;
  synthetic.id = request.id;
  synthetic.app = base.app;
  synthetic.machines = base.machines;
  synthetic.vertices = base.graph.live_vertex_count();
  synthetic.edges = base.graph.live_edge_count();
  synthetic.partitioner = request.partitioner;
  synthetic.timeout_ms = request.timeout_ms;

  PlanResponse response = planner_.plan(synthetic);
  if (!response.ok) {
    count("delta.plan_failures");
    return serialize_response(response);  // typed timeout/error passthrough
  }

  PartitionerKind kind;
  try {
    kind = partitioner_from_string(response.partitioner);
  } catch (const std::invalid_argument& e) {
    count("delta.plan_failures");
    return serialize_error(request.id, e.what());
  }
  if (kind == PartitionerKind::kGinger) {
    count("delta.rejected");
    return serialize_error(request.id,
                           "partitioner 'ginger' does not support incremental planning");
  }

  base.kind = kind;
  base.pinned_alpha = response.fitted_alpha;
  base.weights = response.weights;
  base.profile_key = planner_.profile_key(synthetic);
  try {
    rebuild_assignment(base);
  } catch (const std::exception& e) {
    count("delta.plan_failures");
    return serialize_error(request.id, e.what());
  }
  base.profiled_hist = base.graph.live_total_degree();
  base.drift.reset(base.graph.live_edge_count());
  base.version = 1;
  base.ready = true;
  count("delta.creations");
  return finish(base, name, response, /*reprofiled=*/true,
                /*moved=*/base.graph.live_edge_count(), /*hist_distance=*/0.0);
}

std::string DeltaPlanner::handle_update(BaseState& base, const std::string& name,
                                        const PlanRequest& request) {
  DriftPolicy policy = options_.default_policy;
  if (request.drift_churn) policy.churn_threshold = *request.drift_churn;
  if (request.drift_hist) policy.histogram_threshold = *request.drift_hist;
  if (request.reprofile) policy.mode = *request.reprofile;

  const std::vector<MachineId> old_owners = base.owners;

  LiveGraph::BatchResult applied;
  try {
    applied = base.graph.apply(request.mutations);
  } catch (const MutationError& e) {
    count("delta.rejected");
    return serialize_error(request.id, e.what());  // atomic: base untouched
  }
  count("delta.mutations", request.mutations.size());
  try {
    extend_assignment(base, applied);
  } catch (const std::exception& e) {
    count("delta.plan_failures");
    return serialize_error(request.id, e.what());
  }
  base.drift.added += applied.added_slots.size();
  base.drift.removed += applied.removed_slots.size();

  if (base.graph.live_edge_count() == 0 || base.graph.live_vertex_count() == 0) {
    ++base.version;
    count("delta.rejected");
    return serialize_error(request.id,
                           "base '" + name + "' has no live edges to plan");
  }

  const double hist_distance =
      histogram_distance(base.profiled_hist, base.graph.live_total_degree());
  const bool reprofile = should_reprofile(policy, base.drift, hist_distance);

  PlanRequest synthetic;
  synthetic.type = RequestType::kPlan;
  synthetic.id = request.id;
  synthetic.app = base.app;
  synthetic.machines = base.machines;
  synthetic.vertices = base.graph.live_vertex_count();
  synthetic.edges = base.graph.live_edge_count();
  synthetic.partitioner = base.kind;  // pinned at creation
  synthetic.timeout_ms = request.timeout_ms;

  if (!reprofile) {
    // Patch path: alpha stays pinned, so the profile key is unchanged and
    // the plan is pure cached arithmetic re-scaled to the live size.
    synthetic.alpha = base.pinned_alpha;
    PlanResponse response = planner_.plan(synthetic);
    if (!response.ok) {
      count("delta.plan_failures");
      return serialize_response(response);
    }
    ++base.version;
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < base.owners.size(); ++i) {
      if (base.graph.dead(i)) continue;
      const MachineId before = i < old_owners.size() ? old_owners[i] : kInvalidMachine;
      if (base.owners[i] != before) ++moved;
    }
    return finish(base, name, response, /*reprofiled=*/false, moved, hist_distance);
  }

  // Re-profile path: refit alpha from the live graph, force a fresh CCR
  // profile by invalidating the key the refit resolves to, then rebuild the
  // maintained assignment from scratch over the compacted survivors — the
  // result is byte-identical to a from-scratch plan of the mutated graph.
  const std::string new_key = planner_.profile_key(synthetic);
  planner_.invalidate_profile(new_key);
  count("delta.reprofiles");
  PlanResponse response = planner_.plan(synthetic);
  if (!response.ok) {
    // Keep the patched assignment and accumulated drift; the next delta
    // will try to re-profile again.
    count("delta.plan_failures");
    return serialize_response(response);
  }

  // Owners of the surviving live slots, pre-compact order == post-compact
  // slot order — the comparand for the moved-edges count.
  std::vector<MachineId> surviving_before;
  surviving_before.reserve(base.graph.live_edge_count());
  for (std::size_t i = 0; i < base.owners.size(); ++i) {
    if (!base.graph.dead(i)) {
      surviving_before.push_back(i < old_owners.size() ? old_owners[i]
                                                       : kInvalidMachine);
    }
  }

  base.pinned_alpha = response.fitted_alpha;
  base.weights = response.weights;
  base.profile_key = new_key;
  base.graph.compact(&base.owners);
  try {
    rebuild_assignment(base);
  } catch (const std::exception& e) {
    count("delta.plan_failures");
    return serialize_error(request.id, e.what());
  }
  base.profiled_hist = base.graph.live_total_degree();
  base.drift.reset(base.graph.live_edge_count());
  ++base.version;

  std::uint64_t moved = 0;
  for (std::size_t i = 0; i < base.owners.size(); ++i) {
    if (base.owners[i] != surviving_before[i]) ++moved;
  }
  return finish(base, name, response, /*reprofiled=*/true, moved, hist_distance);
}

void DeltaPlanner::rebuild_assignment(BaseState& base) {
  const EdgeList live = base.graph.live_edge_list();
  base.owners.assign(base.graph.slot_count(), kInvalidMachine);
  std::vector<MachineId> assigned;
  if (IncrementalState::supports(base.kind)) {
    base.inc = IncrementalState::create(base.kind, base.weights, base.seed);
    base.inc->ensure_vertices(base.graph.num_vertices());
    assigned.reserve(live.num_edges());
    base.inc->assign_batch(live.edges(), assigned);
  } else {
    base.inc.reset();
    assigned = make_partitioner(base.kind)
                   ->partition(live, base.weights, base.seed)
                   .edge_to_machine;
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < base.owners.size(); ++i) {
    if (!base.graph.dead(i)) base.owners[i] = assigned.at(next++);
  }
}

void DeltaPlanner::extend_assignment(BaseState& base,
                                     const LiveGraph::BatchResult& applied) {
  base.owners.resize(base.graph.slot_count(), kInvalidMachine);
  if (base.inc == nullptr) {
    // Recompute kinds (chunking, random_hash): one stateless O(E) pass over
    // the live list is already as cheap as any incremental bookkeeping.
    rebuild_assignment(base);
    return;
  }
  base.inc->ensure_vertices(base.graph.num_vertices());
  std::vector<Edge> added;
  added.reserve(applied.added_slots.size());
  for (const std::size_t slot : applied.added_slots) {
    added.push_back(base.graph.slot(slot));
  }
  std::vector<MachineId> assigned;
  assigned.reserve(added.size());
  base.inc->assign_batch(added, assigned);
  for (std::size_t i = 0; i < applied.added_slots.size(); ++i) {
    base.owners[applied.added_slots[i]] = assigned[i];
  }
  // Retract after assigning, so an edge added and removed by the same batch
  // passes through the scorer symmetrically.
  for (const std::size_t slot : applied.removed_slots) {
    if (base.owners[slot] != kInvalidMachine) {
      base.inc->retract(base.graph.slot(slot), base.owners[slot]);
      base.owners[slot] = kInvalidMachine;
    }
  }
}

std::string DeltaPlanner::finish(BaseState& base, const std::string& name,
                                 PlanResponse& response, bool reprofiled,
                                 std::uint64_t moved, double hist_distance) {
  DeltaInfo info;
  info.base = name;
  info.version = base.version;
  info.live_vertices = base.graph.live_vertex_count();
  info.live_edges = base.graph.live_edge_count();
  info.churn = base.drift.churn();
  info.hist_distance = hist_distance;
  info.reprofiled = reprofiled;
  info.moved_edges = moved;

  // Order-sensitive digest of the maintained state: (src, dst, owner) of
  // every live slot in slot order.  Two replicas (or an incremental base and
  // its from-scratch twin) agree on the digest iff they hold the identical
  // assignment of the identical edge sequence.
  std::uint64_t digest = hash_u64(base.graph.live_edge_count(), 0xD1B54A32D192ED03ull);
  PartitionAssignment assignment;
  assignment.num_machines = static_cast<MachineId>(base.weights.size());
  assignment.edge_to_machine.reserve(base.graph.live_edge_count());
  for (std::size_t i = 0; i < base.graph.slot_count(); ++i) {
    if (base.graph.dead(i)) continue;
    const Edge& e = base.graph.slot(i);
    digest = hash_combine(digest, (static_cast<std::uint64_t>(e.src) << 32) | e.dst);
    digest = hash_combine(digest, base.owners[i]);
    assignment.edge_to_machine.push_back(base.owners[i]);
  }
  info.digest = digest;

  const PartitionMetrics observed = compute_partition_metrics(
      base.graph.live_edge_list(), assignment, base.weights,
      &planner_.thread_pool());
  info.replication_factor = observed.replication_factor;
  info.imbalance = observed.weighted_imbalance;

  std::string line = serialize_response(response);
  line.pop_back();  // strip '}' — the block is strictly additive
  line += ",\"delta\":";
  line += serialize_delta_block(info);
  line += "}";
  return line;
}

// --- persistence -----------------------------------------------------------

namespace {

void encode_histogram(std::string& out, const ExactHistogram& hist) {
  const auto& counts = hist.counts();
  persist::append_u64(out, counts.size());
  std::uint64_t nonzero = 0;
  for (const std::uint64_t c : counts) {
    if (c != 0) ++nonzero;
  }
  persist::append_u64(out, nonzero);
  for (std::size_t value = 0; value < counts.size(); ++value) {
    if (counts[value] == 0) continue;
    persist::append_u32(out, static_cast<std::uint32_t>(value));
    persist::append_u64(out, counts[value]);
  }
}

ExactHistogram decode_histogram(persist::Cursor& cursor) {
  ExactHistogram hist;
  const std::uint64_t support = cursor.read_u64();
  const std::uint64_t nonzero = cursor.read_u64();
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    const std::uint32_t value = cursor.read_u32();
    if (value >= support) {
      throw persist::SnapshotError("dynamic state: histogram value out of range");
    }
    hist.add(value, cursor.read_u64());
  }
  return hist;
}

}  // namespace

std::string DeltaPlanner::encode_state() const {
  std::vector<std::string> bodies;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& [name, basep] : bases_) {  // std::map: name-sorted
      std::lock_guard<std::mutex> base_lock(basep->mutex);
      const BaseState& base = *basep;
      if (!base.ready) continue;
      std::string body;
      persist::append_string(body, name);
      persist::append_string(body, to_string(base.app));
      persist::append_u32(body, static_cast<std::uint32_t>(base.machines.size()));
      for (const std::string& machine : base.machines) {
        persist::append_string(body, machine);
      }
      persist::append_string(body, to_string(base.kind));
      persist::append_u64(body, base.seed);
      persist::append_f64(body, base.pinned_alpha);
      persist::append_string(body, base.profile_key);
      persist::append_u64(body, base.version);
      persist::append_u64(body, base.drift.added);
      persist::append_u64(body, base.drift.removed);
      persist::append_u64(body, base.drift.profiled_edges);
      encode_histogram(body, base.profiled_hist);
      persist::append_u32(body, static_cast<std::uint32_t>(base.weights.size()));
      for (const double w : base.weights) persist::append_f64(body, w);
      // Live content only: tombstones are dropped (slot indices renumber,
      // which is invisible — only live-slot ORDER is observable).
      persist::append_u64(body, base.graph.num_vertices());
      std::string alive(base.graph.num_vertices(), '\0');
      for (VertexId v = 0; v < base.graph.num_vertices(); ++v) {
        if (base.graph.vertex_alive(v)) alive[v] = '\1';
      }
      persist::append_string(body, alive);
      persist::append_u64(body, base.graph.live_edge_count());
      for (std::size_t i = 0; i < base.graph.slot_count(); ++i) {
        if (base.graph.dead(i)) continue;
        const Edge& e = base.graph.slot(i);
        persist::append_u32(body, e.src);
        persist::append_u32(body, e.dst);
        persist::append_u32(body, base.owners[i]);
      }
      persist::append_u32(body, base.inc != nullptr ? 1 : 0);
      if (base.inc != nullptr) {
        std::string inner;
        base.inc->encode(inner);
        persist::append_string(body, inner);
      }
      bodies.push_back(std::move(body));
    }
  }
  std::string out;
  persist::append_u32(out, static_cast<std::uint32_t>(bodies.size()));
  for (const std::string& body : bodies) out += body;
  return out;
}

std::size_t DeltaPlanner::restore_state(const std::string& payload) {
  persist::Cursor cursor(payload);
  const std::uint32_t base_count = cursor.read_u32();

  // Decode and validate everything before touching the registry: a corrupt
  // snapshot must reject wholesale, never leave half a base behind.
  std::vector<std::pair<std::string, std::unique_ptr<BaseState>>> restored;
  for (std::uint32_t k = 0; k < base_count; ++k) {
    auto base = std::make_unique<BaseState>();
    const std::string name = cursor.read_string();
    if (name.empty()) throw persist::SnapshotError("dynamic state: empty base name");

    const std::string app_name = cursor.read_string();
    const auto app = try_app_from_name(app_name);
    if (!app) {
      throw persist::SnapshotError("dynamic state: unknown app '" + app_name + "'");
    }
    base->app = *app;

    const std::uint32_t machine_count = cursor.read_u32();
    for (std::uint32_t m = 0; m < machine_count; ++m) {
      base->machines.push_back(cursor.read_string());
    }
    if (base->machines.empty()) {
      throw persist::SnapshotError("dynamic state: base without machines");
    }

    const std::string kind_name = cursor.read_string();
    try {
      base->kind = partitioner_from_string(kind_name);
    } catch (const std::invalid_argument&) {
      throw persist::SnapshotError("dynamic state: unknown partitioner '" + kind_name + "'");
    }
    base->seed = cursor.read_u64();
    base->pinned_alpha = cursor.read_f64();
    if (!(base->pinned_alpha > 1.0)) {
      throw persist::SnapshotError("dynamic state: pinned alpha must be > 1");
    }
    base->profile_key = cursor.read_string();
    base->version = cursor.read_u64();
    base->drift.added = cursor.read_u64();
    base->drift.removed = cursor.read_u64();
    base->drift.profiled_edges = cursor.read_u64();
    base->profiled_hist = decode_histogram(cursor);

    const std::uint32_t weight_count = cursor.read_u32();
    if (weight_count == 0) {
      throw persist::SnapshotError("dynamic state: base without weights");
    }
    for (std::uint32_t w = 0; w < weight_count; ++w) {
      const double weight = cursor.read_f64();
      if (!(weight > 0.0)) {
        throw persist::SnapshotError("dynamic state: weights must be positive");
      }
      base->weights.push_back(weight);
    }

    const std::uint64_t num_vertices = cursor.read_u64();
    const std::string alive = cursor.read_string();
    if (alive.size() != num_vertices) {
      throw persist::SnapshotError("dynamic state: alive bitmap size mismatch");
    }
    std::vector<Mutation> rebuild;
    for (std::uint64_t v = 0; v < num_vertices; ++v) {
      if (alive[v] == '\1') {
        rebuild.push_back(Mutation::add_vertex(static_cast<VertexId>(v)));
      } else if (alive[v] != '\0') {
        throw persist::SnapshotError("dynamic state: malformed alive bitmap");
      }
    }
    const std::uint64_t live_edges = cursor.read_u64();
    std::vector<MachineId> live_owners;
    live_owners.reserve(live_edges);
    for (std::uint64_t i = 0; i < live_edges; ++i) {
      const VertexId src = cursor.read_u32();
      const VertexId dst = cursor.read_u32();
      if (src >= num_vertices || dst >= num_vertices || alive[src] != '\1' ||
          alive[dst] != '\1') {
        throw persist::SnapshotError("dynamic state: edge endpoint not alive");
      }
      const MachineId owner = cursor.read_u32();
      if (owner >= base->weights.size()) {
        throw persist::SnapshotError("dynamic state: owner out of machine range");
      }
      rebuild.push_back(Mutation::add_edge(src, dst));
      live_owners.push_back(owner);
    }
    try {
      base->graph.apply(rebuild);
    } catch (const MutationError& e) {
      throw persist::SnapshotError(std::string("dynamic state: inconsistent graph: ") +
                                   e.what());
    }
    // The rebuild ends at the highest live vertex; the scorer arrays below
    // may be longer, and the next snapshot must record the space they cover.
    base->graph.grow_vertex_space(static_cast<VertexId>(num_vertices));
    base->owners = std::move(live_owners);  // all slots live after rebuild

    const std::uint32_t has_inc = cursor.read_u32();
    if (has_inc > 1) throw persist::SnapshotError("dynamic state: malformed inc flag");
    if ((has_inc == 1) != IncrementalState::supports(base->kind)) {
      throw persist::SnapshotError("dynamic state: scorer state does not match partitioner");
    }
    if (has_inc == 1) {
      const std::string inner = cursor.read_string();
      persist::Cursor inner_cursor(inner);
      try {
        // Bounded by the recorded vertex space: no scorer array a valid
        // snapshot carries is longer.
        base->inc = IncrementalState::decode(base->kind, inner_cursor, num_vertices,
                                             base->weights, base->seed);
      } catch (const std::invalid_argument& e) {
        throw persist::SnapshotError(std::string("dynamic state: ") + e.what());
      }
      if (!inner_cursor.done()) {
        throw persist::SnapshotError("dynamic state: trailing scorer-state bytes");
      }
      base->inc->ensure_vertices(base->graph.num_vertices());
    }
    base->ready = true;
    restored.emplace_back(name, std::move(base));
  }
  if (!cursor.done()) {
    throw persist::SnapshotError("dynamic state: trailing bytes after last base");
  }

  std::size_t imported = 0;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& [name, base] : restored) {
    if (bases_.count(name) != 0) continue;  // live state wins over snapshots
    if (bases_.size() >= options_.max_bases) break;
    bases_.emplace(name, std::move(base));
    ++imported;
  }
  count("delta.bases_restored", imported);
  return imported;
}

}  // namespace pglb::dynamic
