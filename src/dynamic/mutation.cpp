#include "dynamic/mutation.hpp"

#include <algorithm>
#include <limits>

#include "util/hash.hpp"

namespace pglb::dynamic {

const char* to_string(MutationOp op) noexcept {
  switch (op) {
    case MutationOp::kAddEdge: return "add_edge";
    case MutationOp::kRemoveEdge: return "remove_edge";
    case MutationOp::kAddVertex: return "add_vertex";
    case MutationOp::kRemoveVertex: return "remove_vertex";
  }
  return "add_edge";
}

std::optional<MutationOp> mutation_op_from_string(std::string_view name) noexcept {
  if (name == "add_edge") return MutationOp::kAddEdge;
  if (name == "remove_edge") return MutationOp::kRemoveEdge;
  if (name == "add_vertex") return MutationOp::kAddVertex;
  if (name == "remove_vertex") return MutationOp::kRemoveVertex;
  return std::nullopt;
}

void LiveGraph::grow_vertex_space(VertexId count) {
  if (count > num_vertices_) {
    alive_.resize(count, 0);
    num_vertices_ = count;
  }
}

void LiveGraph::revive(VertexId v) {
  grow_vertex_space(v + 1);
  if (alive_[v] == 0) {
    alive_[v] = 1;
    ++live_vertices_;
  }
}

LiveGraph::BatchResult LiveGraph::apply(std::span<const Mutation> batch) {
  // --- validation pass: dry-run the batch over overlay state ---------------
  // Overlay maps carry only the pairs/vertices the batch touches; anything
  // absent reads through to the live structures.  Nothing below this comment
  // mutates the graph.
  std::unordered_map<std::uint64_t, std::uint64_t> mult_overlay;
  std::unordered_map<VertexId, bool> alive_overlay;

  const auto multiplicity = [&](std::uint64_t key) -> std::uint64_t {
    if (const auto it = mult_overlay.find(key); it != mult_overlay.end()) {
      return it->second;
    }
    const auto it = live_index_.find(key);
    return it != live_index_.end() ? it->second.size() : 0;
  };
  const auto is_alive = [&](VertexId v) -> bool {
    if (const auto it = alive_overlay.find(v); it != alive_overlay.end()) {
      return it->second;
    }
    return vertex_alive(v);
  };

  for (const Mutation& m : batch) {
    switch (m.op) {
      case MutationOp::kAddEdge: {
        const std::uint64_t key = pair_key(m.src, m.dst);
        mult_overlay[key] = multiplicity(key) + 1;
        alive_overlay[m.src] = true;
        alive_overlay[m.dst] = true;
        break;
      }
      case MutationOp::kRemoveEdge: {
        const std::uint64_t key = pair_key(m.src, m.dst);
        const std::uint64_t count = multiplicity(key);
        if (count == 0) {
          throw MutationError("remove_edge (" + std::to_string(m.src) + ", " +
                              std::to_string(m.dst) +
                              ") does not match a live edge at its point in the batch");
        }
        mult_overlay[key] = count - 1;
        break;
      }
      case MutationOp::kAddVertex: {
        if (is_alive(m.src)) {
          throw MutationError("add_vertex " + std::to_string(m.src) +
                              " names an already-live vertex");
        }
        alive_overlay[m.src] = true;
        break;
      }
      case MutationOp::kRemoveVertex: {
        if (!is_alive(m.src)) {
          throw MutationError("remove_vertex " + std::to_string(m.src) +
                              " names a vertex that is not live");
        }
        alive_overlay[m.src] = false;
        // Removing a vertex removes its incident live edges: zero their
        // multiplicities so a later remove_edge of one is the contradiction
        // it should be.  Pre-existing incident pairs come from the slots;
        // batch-added ones are already in the overlay.
        for (std::size_t i = 0; i < slots_.size(); ++i) {
          if (dead_[i] != 0) continue;
          const Edge& e = slots_[i];
          if (e.src != m.src && e.dst != m.src) continue;
          mult_overlay.emplace(pair_key(e.src, e.dst),
                               multiplicity(pair_key(e.src, e.dst)));
        }
        for (auto& [key, count] : mult_overlay) {
          const auto src = static_cast<VertexId>(key >> 32);
          const auto dst = static_cast<VertexId>(key & 0xFFFFFFFFu);
          if (src == m.src || dst == m.src) count = 0;
        }
        break;
      }
    }
  }

  // --- apply pass: the batch is valid; mutate for real ---------------------
  BatchResult result;
  for (const Mutation& m : batch) {
    switch (m.op) {
      case MutationOp::kAddEdge: {
        revive(m.src);
        revive(m.dst);
        const std::size_t slot = slots_.size();
        slots_.push_back(Edge{m.src, m.dst});
        dead_.push_back(0);
        live_index_[pair_key(m.src, m.dst)].push_back(slot);
        ++live_edges_;
        result.added_slots.push_back(slot);
        break;
      }
      case MutationOp::kRemoveEdge: {
        auto& slots = live_index_.at(pair_key(m.src, m.dst));
        const std::size_t slot = slots.front();  // first live match
        slots.erase(slots.begin());
        if (slots.empty()) live_index_.erase(pair_key(m.src, m.dst));
        dead_[slot] = 1;
        --live_edges_;
        result.removed_slots.push_back(slot);
        break;
      }
      case MutationOp::kAddVertex: {
        revive(m.src);
        break;
      }
      case MutationOp::kRemoveVertex: {
        alive_[m.src] = 0;
        --live_vertices_;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
          if (dead_[i] != 0) continue;
          const Edge& e = slots_[i];
          if (e.src != m.src && e.dst != m.src) continue;
          auto& slots = live_index_.at(pair_key(e.src, e.dst));
          slots.erase(std::find(slots.begin(), slots.end(), i));
          if (slots.empty()) live_index_.erase(pair_key(e.src, e.dst));
          dead_[i] = 1;
          --live_edges_;
          result.removed_slots.push_back(i);
        }
        break;
      }
    }
  }
  return result;
}

EdgeList LiveGraph::live_edge_list() const {
  EdgeList graph(num_vertices_);
  graph.reserve(live_edges_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (dead_[i] == 0) graph.add(slots_[i].src, slots_[i].dst);
  }
  return graph;
}

ExactHistogram LiveGraph::live_total_degree() const {
  std::vector<EdgeId> degree(num_vertices_, 0);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (dead_[i] != 0) continue;
    ++degree[slots_[i].src];
    ++degree[slots_[i].dst];
  }
  ExactHistogram hist;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (alive_[v] != 0) hist.add(degree[v]);
  }
  return hist;
}

void LiveGraph::compact(std::vector<MachineId>* owners) {
  VertexId max_alive = 0;
  bool any_alive = false;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (alive_[v] != 0) {
      max_alive = v;
      any_alive = true;
    }
  }
  std::vector<Edge> survivors;
  std::vector<MachineId> surviving_owners;
  std::vector<std::size_t> new_slot(slots_.size(), 0);  // old live slot -> survivor slot
  survivors.reserve(live_edges_);
  if (owners != nullptr) surviving_owners.reserve(live_edges_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (dead_[i] != 0) continue;
    new_slot[i] = survivors.size();
    survivors.push_back(slots_[i]);
    if (owners != nullptr) surviving_owners.push_back((*owners)[i]);
  }
  slots_ = std::move(survivors);
  dead_.assign(slots_.size(), 0);
  if (owners != nullptr) *owners = std::move(surviving_owners);
  num_vertices_ = any_alive ? max_alive + 1 : 0;
  alive_.resize(num_vertices_);
  // The index holds exactly the live slots, each key's in slot order, and
  // the renumbering keeps that order: remap in place rather than rebuild it
  // node by node — a rebuild is one heap allocation per live edge, which
  // stalls every other thread allocating from the same malloc arena.
  for (auto& [key, slots] : live_index_) {
    for (std::size_t& slot : slots) slot = new_slot[slot];
  }
  live_edges_ = slots_.size();
}

std::size_t LiveGraph::nth_live_slot(std::uint64_t n) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (dead_[i] != 0) {
      continue;
    }
    if (seen == n) return i;
    ++seen;
  }
  throw std::out_of_range("LiveGraph::nth_live_slot: fewer than n+1 live edges");
}

namespace {

/// Incident live degree of `v` in the mirror, counting only base slots not
/// yet removed by this batch.
std::uint64_t base_incident_degree(const LiveGraph& mirror, VertexId v,
                                   const std::vector<std::uint8_t>& slot_removed) {
  std::uint64_t degree = 0;
  for (std::size_t i = 0; i < mirror.slot_count(); ++i) {
    if (mirror.dead(i) || slot_removed[i] != 0) continue;
    const Edge& e = mirror.slot(i);
    if (e.src == v || e.dst == v) ++degree;
  }
  return degree;
}

}  // namespace

std::vector<Mutation> generate_mutation_batch(const LiveGraph& mirror,
                                              std::uint64_t seed,
                                              std::uint64_t batch_index,
                                              std::size_t edits) {
  std::uint64_t state = hash_u64(batch_index, seed);
  const auto next = [&state]() {
    state = hash_u64(state, 0x9e3779b97f4a7c15ull);
    return state;
  };

  std::vector<Mutation> batch;
  batch.reserve(edits);
  // Batch-local bookkeeping so every emitted mutation is valid for the
  // mirror's state at its point in the batch.
  std::vector<std::uint8_t> slot_removed(mirror.slot_count(), 0);
  std::uint64_t base_live_left = mirror.live_edge_count();
  std::vector<std::uint8_t> vertex_removed(mirror.num_vertices(), 0);
  std::vector<std::uint8_t> vertex_touched_by_add(mirror.num_vertices(), 0);
  VertexId births = 0;
  const VertexId space = mirror.num_vertices();

  const auto emit_add_edge = [&]() {
    VertexId src, dst;
    if (space == 0) {
      src = 0;
      dst = 1;
    } else {
      src = static_cast<VertexId>(next() % space);
      // A quarter of new edges attach to a low-id "hub" range so churn keeps
      // a power-law flavour instead of flattening the degree histogram.
      const VertexId hub_range = std::max<VertexId>(1, space / 8);
      dst = next() % 4 == 0 ? static_cast<VertexId>(next() % hub_range)
                            : static_cast<VertexId>(next() % space);
    }
    if (src < space) vertex_touched_by_add[src] = 1;
    if (dst < space) vertex_touched_by_add[dst] = 1;
    batch.push_back(Mutation::add_edge(src, dst));
  };

  for (std::size_t k = 0; k < edits; ++k) {
    const std::uint64_t roll = next() % 100;
    if (roll < 58 || base_live_left == 0) {
      emit_add_edge();
    } else if (roll < 88) {
      // Remove a base live edge not already taken by this batch and not
      // incident to a vertex this batch retires (conservative validity).
      const std::uint64_t start = next() % mirror.live_edge_count();
      bool emitted = false;
      for (std::uint64_t t = 0; t < mirror.live_edge_count(); ++t) {
        const std::size_t slot =
            mirror.nth_live_slot((start + t) % mirror.live_edge_count());
        if (slot_removed[slot] != 0) continue;
        const Edge& e = mirror.slot(slot);
        if ((e.src < space && vertex_removed[e.src] != 0) ||
            (e.dst < space && vertex_removed[e.dst] != 0)) {
          continue;
        }
        slot_removed[slot] = 1;
        --base_live_left;
        batch.push_back(Mutation::remove_edge(e.src, e.dst));
        emitted = true;
        break;
      }
      if (!emitted) emit_add_edge();
    } else if (roll < 94) {
      batch.push_back(Mutation::add_vertex(space + births));
      ++births;
    } else {
      // Retire a low-degree live vertex untouched by this batch; fall back
      // to an add when no candidate turns up within a bounded probe.
      bool emitted = false;
      if (space > 0) {
        const VertexId start = static_cast<VertexId>(next() % space);
        for (VertexId t = 0; t < std::min<VertexId>(space, 64); ++t) {
          const VertexId v = static_cast<VertexId>((start + t) % space);
          if (!mirror.vertex_alive(v) || vertex_removed[v] != 0 ||
              vertex_touched_by_add[v] != 0) {
            continue;
          }
          if (base_incident_degree(mirror, v, slot_removed) > 2) continue;
          vertex_removed[v] = 1;
          for (std::size_t i = 0; i < mirror.slot_count(); ++i) {
            if (mirror.dead(i) || slot_removed[i] != 0) continue;
            const Edge& e = mirror.slot(i);
            if (e.src == v || e.dst == v) {
              slot_removed[i] = 1;
              --base_live_left;
            }
          }
          batch.push_back(Mutation::remove_vertex(v));
          emitted = true;
          break;
        }
      }
      if (!emitted) emit_add_edge();
    }
  }
  return batch;
}

}  // namespace pglb::dynamic
