// Delta-planning subsystem (docs/DYNAMIC.md): LiveGraph mutation semantics,
// the seeded stream generator, drift math, incremental scorer states (batch
// continuation, encode/decode resume), the DeltaPlanner end to end
// (incremental-vs-scratch equivalence, typed errors, persistence round trip
// and rejection), and the gate against the reactive-migration baseline.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/dynamic_migration.hpp"
#include "core/drift.hpp"
#include "dynamic/delta_planner.hpp"
#include "dynamic/mutation.hpp"
#include "gen/powerlaw.hpp"
#include "graph/stats.hpp"
#include "machine/perf_model.hpp"
#include "obs/registry.hpp"
#include "partition/factory.hpp"
#include "partition/incremental.hpp"
#include "persist/warm_state.hpp"
#include "service/metrics.hpp"
#include "service/planner.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

using dynamic::DeltaOptions;
using dynamic::DeltaPlanner;
using dynamic::LiveGraph;
using dynamic::Mutation;
using dynamic::MutationError;
using dynamic::generate_mutation_batch;

// --- LiveGraph --------------------------------------------------------------

TEST(LiveGraph, AppliesBatchesAndCounts) {
  LiveGraph g;
  g.apply(std::vector<Mutation>{Mutation::add_vertex(0), Mutation::add_vertex(1),
                                Mutation::add_edge(0, 1), Mutation::add_edge(0, 1)});
  EXPECT_EQ(g.live_vertex_count(), 2u);
  EXPECT_EQ(g.live_edge_count(), 2u);  // duplicates make a multigraph
  EXPECT_EQ(g.slot_count(), 2u);

  // Removing one copy tombstones exactly the FIRST live slot of (0, 1).
  g.apply(std::vector<Mutation>{Mutation::remove_edge(0, 1)});
  EXPECT_EQ(g.live_edge_count(), 1u);
  EXPECT_TRUE(g.dead(0));
  EXPECT_FALSE(g.dead(1));
}

TEST(LiveGraph, RejectedBatchIsAtomic) {
  LiveGraph g;
  g.apply(std::vector<Mutation>{Mutation::add_vertex(0), Mutation::add_vertex(1),
                                Mutation::add_edge(0, 1)});
  // The first two mutations are valid; the third is not.  Nothing may stick.
  EXPECT_THROW(
      g.apply(std::vector<Mutation>{Mutation::add_edge(1, 0),
                                    Mutation::add_vertex(2),
                                    Mutation::remove_edge(0, 7)}),
      MutationError);
  EXPECT_EQ(g.live_edge_count(), 1u);
  EXPECT_EQ(g.live_vertex_count(), 2u);
  EXPECT_EQ(g.slot_count(), 1u);
}

TEST(LiveGraph, BatchLocalEffectsResolveInOrder) {
  LiveGraph g;
  // add-then-remove of the same edge inside one batch is legal...
  g.apply(std::vector<Mutation>{Mutation::add_vertex(0), Mutation::add_vertex(1),
                                Mutation::add_edge(0, 1),
                                Mutation::remove_edge(0, 1)});
  EXPECT_EQ(g.live_edge_count(), 0u);
  // ...but removing twice what exists once is a contradiction.
  g.apply(std::vector<Mutation>{Mutation::add_edge(0, 1)});
  EXPECT_THROW(g.apply(std::vector<Mutation>{Mutation::remove_edge(0, 1),
                                             Mutation::remove_edge(0, 1)}),
               MutationError);
  EXPECT_EQ(g.live_edge_count(), 1u);

  // Re-adding a live vertex and retiring a dead one are both invalid.
  EXPECT_THROW(g.apply(std::vector<Mutation>{Mutation::add_vertex(0)}),
               MutationError);
  EXPECT_THROW(g.apply(std::vector<Mutation>{Mutation::remove_vertex(9)}),
               MutationError);
}

TEST(LiveGraph, RemoveVertexDropsIncidentEdges) {
  LiveGraph g;
  g.apply(std::vector<Mutation>{
      Mutation::add_vertex(0), Mutation::add_vertex(1), Mutation::add_vertex(2),
      Mutation::add_edge(0, 1), Mutation::add_edge(1, 2),
      Mutation::add_edge(2, 0)});
  g.apply(std::vector<Mutation>{Mutation::remove_vertex(1)});
  EXPECT_EQ(g.live_vertex_count(), 2u);
  EXPECT_EQ(g.live_edge_count(), 1u);  // only 2 -> 0 survives
  EXPECT_FALSE(g.vertex_alive(1));
  const EdgeList live = g.live_edge_list();
  ASSERT_EQ(live.num_edges(), 1u);
  EXPECT_EQ(live.edge(0).src, 2u);
  EXPECT_EQ(live.edge(0).dst, 0u);
}

TEST(LiveGraph, CompactPreservesSurvivorOrderAndOwners) {
  LiveGraph g;
  g.apply(std::vector<Mutation>{
      Mutation::add_vertex(0), Mutation::add_vertex(1), Mutation::add_vertex(2),
      Mutation::add_vertex(7), Mutation::add_edge(0, 1), Mutation::add_edge(1, 2),
      Mutation::add_edge(2, 0), Mutation::add_edge(0, 2)});
  g.apply(std::vector<Mutation>{Mutation::remove_edge(1, 2),
                                Mutation::remove_vertex(7)});
  std::vector<MachineId> owners = {0, kInvalidMachine, 1, 0};

  g.compact(&owners);
  EXPECT_EQ(g.slot_count(), 3u);
  EXPECT_EQ(g.live_edge_count(), 3u);
  // Vertex space shrinks to highest live + 1 (vertex 7 retired).
  EXPECT_EQ(g.num_vertices(), 3u);
  // Survivors keep their order; owners travel with them.
  EXPECT_EQ(g.slot(0).src, 0u);
  EXPECT_EQ(g.slot(1).src, 2u);
  EXPECT_EQ(g.slot(2).src, 0u);
  ASSERT_EQ(owners.size(), 3u);
  EXPECT_EQ(owners[0], 0u);
  EXPECT_EQ(owners[1], 1u);
  EXPECT_EQ(owners[2], 0u);
  for (std::size_t i = 0; i < g.slot_count(); ++i) EXPECT_FALSE(g.dead(i));
}

TEST(LiveGraph, CompactRenumbersTheEdgeIndex) {
  LiveGraph g;
  g.apply(std::vector<Mutation>{
      Mutation::add_vertex(0), Mutation::add_vertex(1), Mutation::add_vertex(2),
      Mutation::add_vertex(3), Mutation::add_edge(0, 1), Mutation::add_edge(1, 2),
      Mutation::add_edge(0, 1), Mutation::add_edge(2, 3), Mutation::add_edge(3, 0)});
  g.apply(std::vector<Mutation>{Mutation::remove_edge(1, 2)});
  g.compact();
  ASSERT_EQ(g.slot_count(), 4u);  // (0,1) (0,1) (2,3) (3,0)

  // The removed pair is gone from the index; a duplicate pair resolves to
  // its first live match under the new slot numbers.
  EXPECT_THROW(g.apply(std::vector<Mutation>{Mutation::remove_edge(1, 2)}), MutationError);
  auto removed = g.apply(std::vector<Mutation>{Mutation::remove_edge(0, 1)}).removed_slots;
  EXPECT_EQ(removed, (std::vector<std::size_t>{0}));
  removed = g.apply(std::vector<Mutation>{Mutation::remove_edge(0, 1)}).removed_slots;
  EXPECT_EQ(removed, (std::vector<std::size_t>{1}));
  removed = g.apply(std::vector<Mutation>{Mutation::remove_vertex(3)}).removed_slots;
  EXPECT_EQ(removed, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(g.live_edge_count(), 0u);

  // New slots append after the survivors and index like any other.
  const auto added = g.apply(std::vector<Mutation>{Mutation::add_edge(1, 2)}).added_slots;
  EXPECT_EQ(added, (std::vector<std::size_t>{4}));
  removed = g.apply(std::vector<Mutation>{Mutation::remove_edge(1, 2)}).removed_slots;
  EXPECT_EQ(removed, (std::vector<std::size_t>{4}));
}

TEST(MutationGenerator, DeterministicAndAlwaysValid) {
  PowerLawConfig config;
  config.num_vertices = 256;
  config.seed = 7;
  const EdgeList graph = generate_powerlaw(config);

  LiveGraph a;
  std::vector<Mutation> creation;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    creation.push_back(Mutation::add_vertex(v));
  }
  for (const Edge& e : graph.edges()) {
    creation.push_back(Mutation::add_edge(e.src, e.dst));
  }
  a.apply(creation);
  LiveGraph b;
  b.apply(creation);

  for (std::uint64_t batch = 0; batch < 50; ++batch) {
    const auto batch_a = generate_mutation_batch(a, 11, batch, 8);
    const auto batch_b = generate_mutation_batch(b, 11, batch, 8);
    EXPECT_EQ(batch_a, batch_b) << "batch " << batch;
    ASSERT_NO_THROW(a.apply(batch_a)) << "batch " << batch;
    b.apply(batch_b);
  }
  EXPECT_EQ(a.live_edge_count(), b.live_edge_count());
  EXPECT_EQ(a.live_vertex_count(), b.live_vertex_count());
}

// --- drift ------------------------------------------------------------------

TEST(Drift, ChurnArithmetic) {
  DriftStats stats;
  stats.reset(200);
  stats.added = 6;
  stats.removed = 4;
  EXPECT_DOUBLE_EQ(stats.churn(), 0.05);

  DriftStats empty;  // profiled empty: any mutation is full churn
  empty.added = 1;
  EXPECT_DOUBLE_EQ(empty.churn(), 1.0);
}

TEST(Drift, HistogramDistanceBounds) {
  ExactHistogram a;
  ExactHistogram b;
  EXPECT_DOUBLE_EQ(histogram_distance(a, b), 0.0);  // both empty: identical
  a.add(3, 10);
  EXPECT_DOUBLE_EQ(histogram_distance(a, b), 1.0);  // empty vs not: maximal
  b.add(3, 99);  // same distribution, different mass
  EXPECT_DOUBLE_EQ(histogram_distance(a, b), 0.0);
  ExactHistogram c;
  c.add(1, 5);
  c.add(3, 5);
  EXPECT_DOUBLE_EQ(histogram_distance(a, c), 0.5);
}

TEST(Drift, ShouldReprofileModes) {
  DriftPolicy policy;  // 5% churn, 0.10 TV, auto
  DriftStats calm;
  calm.reset(1'000);
  calm.added = 10;
  EXPECT_FALSE(should_reprofile(policy, calm, 0.01));

  DriftStats churned = calm;
  churned.added = 60;
  EXPECT_TRUE(should_reprofile(policy, churned, 0.01));
  EXPECT_TRUE(should_reprofile(policy, calm, 0.2));  // shape drift alone fires

  policy.mode = ReprofileMode::kForce;
  EXPECT_TRUE(should_reprofile(policy, calm, 0.0));
  policy.mode = ReprofileMode::kNever;
  EXPECT_FALSE(should_reprofile(policy, churned, 1.0));
}

// --- incremental scorer states ----------------------------------------------

struct IncrementalCase {
  PartitionerKind kind;
  std::size_t machines;
};

class IncrementalStateSuite : public ::testing::TestWithParam<IncrementalCase> {};

// make_partitioner's partition() for these kinds IS a one-batch replay of a
// fresh state, pinned by the digests in test_property_partitioners.cpp; what
// remains to check here is that a second batch continues, not restarts.
TEST_P(IncrementalStateSuite, FreshReplayMatchesScratchPartitioner) {
  const auto [kind, machine_count] = GetParam();
  PowerLawConfig config;
  config.num_vertices = 512;
  config.seed = 3;
  const EdgeList graph = generate_powerlaw(config);
  std::vector<double> weights(machine_count);
  for (std::size_t m = 0; m < machine_count; ++m) {
    weights[m] = 1.0 + static_cast<double>(m);
  }
  constexpr std::uint64_t kSeed = 5;

  const PartitionAssignment whole =
      make_partitioner(kind)->partition(graph, weights, kSeed);

  auto split = IncrementalState::create(kind, weights, kSeed);
  split->ensure_vertices(graph.num_vertices());
  std::vector<MachineId> two_step;
  const std::size_t half = graph.edges().size() / 2;
  split->assign_batch(graph.edges().subspan(0, half), two_step);
  split->assign_batch(graph.edges().subspan(half), two_step);
  EXPECT_EQ(two_step, whole.edge_to_machine);
}

TEST_P(IncrementalStateSuite, EncodeDecodeResumesIdentically) {
  const auto [kind, machine_count] = GetParam();
  PowerLawConfig config;
  config.num_vertices = 256;
  config.seed = 9;
  const EdgeList graph = generate_powerlaw(config);
  std::vector<double> weights(machine_count, 1.0);
  constexpr std::uint64_t kSeed = 13;

  auto original = IncrementalState::create(kind, weights, kSeed);
  original->ensure_vertices(graph.num_vertices());
  std::vector<MachineId> head;
  const std::size_t half = graph.edges().size() / 2;
  original->assign_batch(graph.edges().subspan(0, half), head);

  std::string encoded;
  original->encode(encoded);
  persist::Cursor cursor(encoded);
  auto resumed = IncrementalState::decode(kind, cursor, graph.num_vertices(), weights, kSeed);
  EXPECT_TRUE(cursor.done());
  resumed->ensure_vertices(graph.num_vertices());

  std::vector<MachineId> tail_original;
  std::vector<MachineId> tail_resumed;
  original->assign_batch(graph.edges().subspan(half), tail_original);
  resumed->assign_batch(graph.edges().subspan(half), tail_resumed);
  EXPECT_EQ(tail_resumed, tail_original);
}

TEST_P(IncrementalStateSuite, UncoveredEndpointThrows) {
  const auto [kind, machine_count] = GetParam();
  const std::vector<double> weights(machine_count, 1.0);
  for (const Edge uncovered : {Edge{1, 4}, Edge{4, 1}}) {
    auto state = IncrementalState::create(kind, weights, 1);
    state->ensure_vertices(4);
    std::vector<MachineId> owners;
    const std::vector<Edge> batch = {{0, 1}, {2, 3}, uncovered, {3, 0}};
    EXPECT_THROW(state->assign_batch(batch, owners), std::out_of_range)
        << uncovered.src << " -> " << uncovered.dst;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StreamingFamily, IncrementalStateSuite,
    ::testing::Values(IncrementalCase{PartitionerKind::kHybrid, 2},
                      IncrementalCase{PartitionerKind::kHdrf, 3},
                      IncrementalCase{PartitionerKind::kOblivious, 2},
                      IncrementalCase{PartitionerKind::kGrid, 4}),
    [](const ::testing::TestParamInfo<IncrementalCase>& case_info) {
      return std::string(to_string(case_info.param.kind));
    });

TEST(IncrementalState, SupportsExactlyTheStreamingFamily) {
  EXPECT_TRUE(IncrementalState::supports(PartitionerKind::kHybrid));
  EXPECT_TRUE(IncrementalState::supports(PartitionerKind::kHdrf));
  EXPECT_TRUE(IncrementalState::supports(PartitionerKind::kOblivious));
  EXPECT_TRUE(IncrementalState::supports(PartitionerKind::kGrid));
  EXPECT_FALSE(IncrementalState::supports(PartitionerKind::kRandomHash));
  EXPECT_FALSE(IncrementalState::supports(PartitionerKind::kChunking));
  EXPECT_FALSE(IncrementalState::supports(PartitionerKind::kGinger));
  EXPECT_THROW(IncrementalState::create(PartitionerKind::kGinger,
                                        std::vector<double>{1.0, 1.0}, 1),
               std::invalid_argument);
}

// --- DeltaPlanner end to end ------------------------------------------------

PlannerOptions tiny_options() {
  PlannerOptions options;
  options.proxy_scale = 0.002;
  return options;
}

/// The base-creation request for a deterministic 256-vertex power-law graph.
PlanRequest creation_request(const std::string& base, const EdgeList& graph) {
  PlanRequest request;
  request.type = RequestType::kDelta;
  request.id = "create";
  request.base = base;
  request.app = AppKind::kPageRank;
  request.machines = {"xeon_server_s", "xeon_server_l"};
  request.seed = 42;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    request.mutations.push_back(Mutation::add_vertex(v));
  }
  for (const Edge& e : graph.edges()) {
    request.mutations.push_back(Mutation::add_edge(e.src, e.dst));
  }
  return request;
}

EdgeList small_powerlaw(std::uint64_t seed = 21) {
  PowerLawConfig config;
  config.num_vertices = 256;
  config.seed = seed;
  return generate_powerlaw(config);
}

struct DeltaHarness {
  ServiceMetrics metrics;
  Planner planner{tiny_options(), &metrics};
  DeltaPlanner delta{planner, {}, &metrics};

  /// handle() + assertions that the response is ok and carries a delta block.
  DeltaInfo ok(const PlanRequest& request) {
    const std::string line = delta.handle(request);
    const PlanResponse response = parse_plan_response(line);
    EXPECT_TRUE(response.ok) << line;
    const std::optional<DeltaInfo> info = parse_delta_block(line);
    EXPECT_TRUE(info.has_value()) << line;
    last_line = line;
    return info.value_or(DeltaInfo{});
  }

  std::string error_of(const PlanRequest& request) {
    const std::string line = delta.handle(request);
    const PlanResponse response = parse_plan_response(line);
    EXPECT_FALSE(response.ok) << line;
    EXPECT_EQ(response.status, PlanStatus::kError) << line;
    return response.error;
  }

  std::string last_line;
};

TEST(DeltaPlanner, CreationPlansAndReportsState) {
  DeltaHarness h;
  const EdgeList graph = small_powerlaw();
  const DeltaInfo info = h.ok(creation_request("g", graph));
  EXPECT_EQ(info.base, "g");
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.live_edges, graph.num_edges());
  EXPECT_TRUE(info.reprofiled);
  EXPECT_EQ(info.moved_edges, graph.num_edges());
  EXPECT_GE(info.replication_factor, 1.0);
  EXPECT_EQ(h.delta.base_count(), 1u);
}

TEST(DeltaPlanner, PatchPathReusesThePinnedProfile) {
  DeltaHarness h;
  h.ok(creation_request("g", small_powerlaw()));
  const std::uint64_t cells_after_create = h.metrics.counter("profile_runs");

  PlanRequest update;
  update.type = RequestType::kDelta;
  update.id = "u1";
  update.base = "g";
  update.mutations = {Mutation::add_edge(1, 2), Mutation::add_edge(3, 4)};
  const DeltaInfo info = h.ok(update);
  EXPECT_EQ(info.version, 2u);
  EXPECT_FALSE(info.reprofiled);
  EXPECT_GT(info.churn, 0.0);
  // The pinned alpha resolves to the creation's profile key: zero new cells.
  EXPECT_EQ(h.metrics.counter("profile_runs"), cells_after_create);
}

TEST(DeltaPlanner, ForcedReprofileMatchesScratchBase) {
  DeltaHarness h;
  const EdgeList graph = small_powerlaw();
  h.ok(creation_request("g", graph));

  // Stream a few seeded batches, mirroring client-side.
  LiveGraph mirror;
  mirror.apply(creation_request("g", graph).mutations);
  for (std::uint64_t b = 0; b < 5; ++b) {
    PlanRequest update;
    update.type = RequestType::kDelta;
    update.id = "m" + std::to_string(b);
    update.base = "g";
    update.mutations = generate_mutation_batch(mirror, 42, b, 8);
    mirror.apply(update.mutations);
    const DeltaInfo info = h.ok(update);
    EXPECT_EQ(info.live_edges, mirror.live_edge_count());
    EXPECT_EQ(info.live_vertices, mirror.live_vertex_count());
  }

  // Force a full re-profile of the streamed base...
  PlanRequest force;
  force.type = RequestType::kDelta;
  force.id = "equiv";
  force.base = "g";
  force.reprofile = ReprofileMode::kForce;
  const DeltaInfo incremental = h.ok(force);
  EXPECT_TRUE(incremental.reprofiled);
  const std::string incremental_line = h.last_line;

  // ...and create a from-scratch twin from the mirror's survivors.
  PlanRequest scratch;
  scratch.type = RequestType::kDelta;
  scratch.id = "equiv";
  scratch.base = "g2";
  scratch.app = AppKind::kPageRank;
  scratch.machines = {"xeon_server_s", "xeon_server_l"};
  scratch.seed = 42;
  for (VertexId v = 0; v < mirror.num_vertices(); ++v) {
    if (mirror.vertex_alive(v)) scratch.mutations.push_back(Mutation::add_vertex(v));
  }
  for (std::size_t i = 0; i < mirror.slot_count(); ++i) {
    if (!mirror.dead(i)) {
      scratch.mutations.push_back(
          Mutation::add_edge(mirror.slot(i).src, mirror.slot(i).dst));
    }
  }
  const DeltaInfo twin = h.ok(scratch);
  const std::string twin_line = h.last_line;

  // Identical assignment of the identical edge sequence, and an identical
  // plan payload (byte-for-byte up to the delta block).
  EXPECT_EQ(incremental.digest, twin.digest);
  EXPECT_EQ(incremental.live_edges, twin.live_edges);
  EXPECT_EQ(incremental.live_vertices, twin.live_vertices);
  const auto prefix = [](const std::string& line) {
    return line.substr(0, line.find(",\"delta\":"));
  };
  EXPECT_EQ(prefix(incremental_line), prefix(twin_line));
}

TEST(DeltaPlanner, TypedErrorsNeverMutateState) {
  DeltaOptions options;
  options.max_bases = 2;
  options.max_batch = 4;
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  DeltaPlanner delta(planner, options, &metrics);

  // Unknown base without creation fields.
  PlanRequest orphan;
  orphan.type = RequestType::kDelta;
  orphan.id = "o";
  orphan.base = "nope";
  orphan.mutations = {Mutation::add_edge(0, 1)};
  std::string line = delta.handle(orphan);
  EXPECT_NE(line.find("unknown base"), std::string::npos) << line;
  EXPECT_EQ(delta.base_count(), 0u);

  // Oversize batch (cap 4).
  PlanRequest fat;
  fat.type = RequestType::kDelta;
  fat.id = "f";
  fat.base = "g";
  fat.app = AppKind::kPageRank;
  fat.machines = {"xeon_server_s", "xeon_server_l"};
  for (VertexId v = 0; v < 5; ++v) fat.mutations.push_back(Mutation::add_vertex(v));
  line = delta.handle(fat);
  EXPECT_NE(line.find("exceeds the server cap"), std::string::npos) << line;
  EXPECT_EQ(delta.base_count(), 0u);

  // Ginger is offline-iterative: rejected with a typed error.
  PlanRequest ginger;
  ginger.type = RequestType::kDelta;
  ginger.id = "gin";
  ginger.base = "g";
  ginger.app = AppKind::kPageRank;
  ginger.machines = {"xeon_server_s", "xeon_server_l"};
  ginger.partitioner = PartitionerKind::kGinger;
  ginger.mutations = {Mutation::add_vertex(0), Mutation::add_vertex(1),
                      Mutation::add_edge(0, 1)};
  line = delta.handle(ginger);
  EXPECT_NE(line.find("ginger"), std::string::npos) << line;
  // The failed creation left a non-ready stub under "g"...
  EXPECT_EQ(delta.base_count(), 1u);

  // ...that a retried (valid) creation re-initializes in place.
  PlanRequest good = ginger;
  good.id = "c";
  good.partitioner.reset();
  ASSERT_TRUE(parse_plan_response(delta.handle(good)).ok);
  EXPECT_EQ(delta.base_count(), 1u);

  // Fill the registry to its cap of 2, then overflow it.
  PlanRequest second = good;
  second.id = "c2";
  second.base = "g2";
  ASSERT_TRUE(parse_plan_response(delta.handle(second)).ok);
  PlanRequest third = good;
  third.id = "c3";
  third.base = "g3";
  line = delta.handle(third);
  EXPECT_NE(line.find("registry full"), std::string::npos) << line;

  PlanRequest flip;
  flip.type = RequestType::kDelta;
  flip.id = "flip";
  flip.base = "g";
  flip.partitioner = PartitionerKind::kHdrf;
  line = delta.handle(flip);
  EXPECT_NE(line.find("cannot change the partitioner"), std::string::npos) << line;

  PlanRequest mismatch = good;
  mismatch.id = "mm";
  mismatch.app = AppKind::kColoring;
  line = delta.handle(mismatch);
  EXPECT_NE(line.find("already exists"), std::string::npos) << line;

  // A rejected batch leaves the base's state untouched.
  PlanRequest bad_batch;
  bad_batch.type = RequestType::kDelta;
  bad_batch.id = "bb";
  bad_batch.base = "g";
  bad_batch.mutations = {Mutation::add_edge(0, 1), Mutation::remove_edge(5, 6)};
  line = delta.handle(bad_batch);
  EXPECT_FALSE(parse_plan_response(line).ok);
  PlanRequest empty;
  empty.type = RequestType::kDelta;
  empty.id = "probe";
  empty.base = "g";
  const std::string probe = delta.handle(empty);
  const std::optional<DeltaInfo> info = parse_delta_block(probe);
  ASSERT_TRUE(info.has_value()) << probe;
  EXPECT_EQ(info->live_edges, 1u);  // still just the creation edge
}

// --- persistence ------------------------------------------------------------

TEST(DeltaPlannerPersist, EncodeRestoreRoundTrip) {
  ServiceMetrics metrics_a;
  Planner planner_a(tiny_options(), &metrics_a);
  DeltaPlanner original(planner_a, {}, &metrics_a);

  const EdgeList graph = small_powerlaw();
  ASSERT_TRUE(
      parse_plan_response(original.handle(creation_request("g", graph))).ok);
  LiveGraph mirror;
  mirror.apply(creation_request("g", graph).mutations);
  for (std::uint64_t b = 0; b < 3; ++b) {
    PlanRequest update;
    update.type = RequestType::kDelta;
    update.id = "m" + std::to_string(b);
    update.base = "g";
    update.mutations = generate_mutation_batch(mirror, 42, b, 8);
    mirror.apply(update.mutations);
    ASSERT_TRUE(parse_plan_response(original.handle(update)).ok);
  }

  const std::string payload = original.encode_state();
  ServiceMetrics metrics_b;
  Planner planner_b(tiny_options(), &metrics_b);
  DeltaPlanner restored(planner_b, {}, &metrics_b);
  EXPECT_EQ(restored.restore_state(payload), 1u);
  EXPECT_EQ(restored.base_names(), std::vector<std::string>{"g"});

  // The restored base continues the stream exactly where the original is:
  // the same next batch must produce byte-identical responses.
  PlanRequest next;
  next.type = RequestType::kDelta;
  next.id = "next";
  next.base = "g";
  next.mutations = generate_mutation_batch(mirror, 42, 3, 8);
  EXPECT_EQ(restored.handle(next), original.handle(next));

  // Live state wins over snapshots: restoring again imports nothing.
  EXPECT_EQ(restored.restore_state(payload), 0u);
}

TEST(DeltaPlannerPersist, CorruptPayloadRejectsWholesale) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  DeltaPlanner original(planner, {}, &metrics);
  const EdgeList graph = small_powerlaw();
  PlanRequest creation = creation_request("g", graph);
  creation.partitioner = PartitionerKind::kHybrid;
  ASSERT_TRUE(parse_plan_response(original.handle(creation)).ok);
  const std::string payload = original.encode_state();

  // The payload ends with the hybrid scorer state: a sparse in-degree array
  // led by its u64 length.  Claiming 2^20 vertices for a 256-vertex base
  // keeps the CRC valid, and must be refused before anything is allocated.
  auto scorer = IncrementalState::create(PartitionerKind::kHybrid, std::vector<double>{1.0}, 1);
  scorer->ensure_vertices(graph.num_vertices());
  std::vector<MachineId> ignored;
  scorer->assign_batch(graph.edges(), ignored);
  std::string scorer_bytes;
  scorer->encode(scorer_bytes);
  ASSERT_GT(payload.size(), scorer_bytes.size());
  const std::size_t scorer_at = payload.size() - scorer_bytes.size();
  ASSERT_EQ(payload.substr(scorer_at), scorer_bytes);
  std::string oversized = payload;
  std::string huge_length;
  persist::append_u64(huge_length, std::uint64_t{1} << 20);
  oversized.replace(scorer_at, huge_length.size(), huge_length);

  const testing::ScratchDir scratch("dynamic_corrupt");
  const std::filesystem::path& dir = scratch.path();
  for (const std::string& corrupt :
       {payload.substr(0, payload.size() / 2), payload + "x", oversized}) {
    DeltaPlanner target(planner, {}, nullptr);
    EXPECT_THROW(target.restore_state(corrupt), persist::SnapshotError);
    EXPECT_EQ(target.base_count(), 0u);  // nothing partial survives

    // At boot the same bytes are a logged cold start, never a partial restore.
    persist::SnapshotWriter writer(1);
    writer.add_section(persist::SectionType::kDynamicState, corrupt);
    writer.write(persist::warm_snapshot_path(dir.string()));
    const std::uint64_t rejected_before =
        global_registry().counter("persist.snapshot_rejected");
    Planner reader(tiny_options());
    DeltaPlanner restored(reader, {}, nullptr);
    const persist::SnapshotIoResult loaded =
        persist::load_warm_snapshot(reader, dir.string(), nullptr, &restored);
    EXPECT_FALSE(loaded.ok);
    EXPECT_TRUE(loaded.rejected);
    EXPECT_EQ(global_registry().counter("persist.snapshot_rejected"), rejected_before + 1);
    EXPECT_EQ(restored.base_count(), 0u);
  }
}

/// Snapshots a base of `kind` whose highest vertex was removed, so its live
/// graph ends below the scorer arrays, then restarts from the snapshot twice.
/// Each restored base must snapshot the same bytes again and resume exactly
/// where the original is.
void expect_restarts_repeat(PartitionerKind kind) {
  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  DeltaPlanner original(planner, {}, &metrics);
  const EdgeList graph = small_powerlaw();
  PlanRequest creation = creation_request("g", graph);
  creation.partitioner = kind;
  if (kind == PartitionerKind::kGrid) {
    creation.machines = {"m4.2xlarge", "c4.2xlarge", "xeon_server_s", "xeon_server_l"};
  }
  ASSERT_TRUE(parse_plan_response(original.handle(creation)).ok);
  const VertexId highest = graph.num_vertices() - 1;
  PlanRequest removal;
  removal.type = RequestType::kDelta;
  removal.id = "rm";
  removal.base = "g";
  removal.mutations = {Mutation::remove_vertex(highest)};
  ASSERT_TRUE(parse_plan_response(original.handle(removal)).ok);

  std::string payload = original.encode_state();
  std::unique_ptr<DeltaPlanner> restored;
  for (int restart = 1; restart <= 2; ++restart) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    restored = std::make_unique<DeltaPlanner>(planner, DeltaOptions{}, nullptr);
    std::size_t imported = 0;
    ASSERT_NO_THROW(imported = restored->restore_state(payload));
    ASSERT_EQ(imported, 1u);
    const std::string again = restored->encode_state();
    EXPECT_TRUE(again == payload);  // EXPECT_EQ would print both payloads
    payload = again;
  }

  PlanRequest revive;
  revive.type = RequestType::kDelta;
  revive.id = "revive";
  revive.base = "g";
  revive.mutations = {Mutation::add_edge(highest, 0), Mutation::add_edge(1, highest)};
  EXPECT_EQ(restored->handle(revive), original.handle(revive));
}

TEST(DeltaPlannerPersist, RestartsRepeatAfterTheHighestVertexIsRemoved) {
  for (const PartitionerKind kind : {PartitionerKind::kHybrid, PartitionerKind::kHdrf,
                                     PartitionerKind::kOblivious, PartitionerKind::kGrid}) {
    SCOPED_TRACE(to_string(kind));
    expect_restarts_repeat(kind);
  }
}

TEST(DeltaPlannerPersist, SnapshotSectionIsForwardSkippable) {
  // A writer with dynamic state produces a snapshot an old reader (no delta
  // planner handed in) must still load: kDynamicState is skipped, the rest
  // of the warm state imports as usual.
  const std::string dir = ::testing::TempDir();

  ServiceMetrics metrics;
  Planner planner(tiny_options(), &metrics);
  DeltaPlanner delta(planner, {}, &metrics);
  ASSERT_TRUE(parse_plan_response(
                  delta.handle(creation_request("g", small_powerlaw())))
                  .ok);
  const persist::SnapshotIoResult saved =
      persist::save_warm_snapshot(planner, dir, nullptr, &delta);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.dynamic_bases, 1u);
  EXPECT_GE(saved.cache_entries, 1u);

  // Old reader: no delta planner.  Loads the cache, skips the section.
  Planner old_reader(tiny_options());
  const persist::SnapshotIoResult loaded =
      persist::load_warm_snapshot(old_reader, dir);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.cache_entries, saved.cache_entries);
  EXPECT_EQ(loaded.dynamic_bases, 0u);

  // New reader: the base comes back.
  ServiceMetrics metrics_new;
  Planner new_reader(tiny_options(), &metrics_new);
  DeltaPlanner delta_new(new_reader, {}, &metrics_new);
  const persist::SnapshotIoResult relived =
      persist::load_warm_snapshot(new_reader, dir, nullptr, &delta_new);
  EXPECT_TRUE(relived.ok) << relived.error;
  EXPECT_EQ(relived.dynamic_bases, 1u);
  EXPECT_EQ(delta_new.base_names(), std::vector<std::string>{"g"});
  std::remove(persist::warm_snapshot_path(dir).c_str());
}

// --- gate against the reactive-migration baseline ---------------------------

TEST(DeltaPlannerBaseline, MaintainedAssignmentLeavesMigrationLittleToDo) {
  // The subsystem's counterpart to the paper's thesis: an incrementally
  // MAINTAINED CCR-weighted assignment of the mutated graph should leave the
  // reactive migration baseline with far less to fix than a stale uniform
  // split — the same comparison bench/baseline_dynamic_migration draws for
  // static ingress.
  const Cluster cluster = testing::case2_cluster();
  const EdgeList graph = small_powerlaw(33);

  LiveGraph live;
  std::vector<Mutation> creation;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    creation.push_back(Mutation::add_vertex(v));
  }
  for (const Edge& e : graph.edges()) {
    creation.push_back(Mutation::add_edge(e.src, e.dst));
  }
  live.apply(creation);

  // CCR-style capability split for Xeon S vs L and the maintained state.
  const std::vector<double> weights = {1.0, 3.2};
  auto inc = IncrementalState::create(PartitionerKind::kHybrid, weights, 42);
  inc->ensure_vertices(live.num_vertices());
  std::vector<MachineId> owners;
  inc->assign_batch(live.live_edge_list().edges(), owners);

  for (std::uint64_t b = 0; b < 10; ++b) {
    const auto batch = generate_mutation_batch(live, 42, b, 8);
    const LiveGraph::BatchResult applied = live.apply(batch);
    owners.resize(live.slot_count(), kInvalidMachine);
    inc->ensure_vertices(live.num_vertices());
    std::vector<Edge> added;
    for (const std::size_t slot : applied.added_slots) added.push_back(live.slot(slot));
    std::vector<MachineId> assigned;
    inc->assign_batch(added, assigned);
    for (std::size_t i = 0; i < added.size(); ++i) {
      owners[applied.added_slots[i]] = assigned[i];
    }
    for (const std::size_t slot : applied.removed_slots) {
      if (owners[slot] != kInvalidMachine) {
        inc->retract(live.slot(slot), owners[slot]);
        owners[slot] = kInvalidMachine;
      }
    }
  }

  const EdgeList mutated = live.live_edge_list();
  PartitionAssignment maintained;
  maintained.num_machines = 2;
  for (std::size_t i = 0; i < live.slot_count(); ++i) {
    if (!live.dead(i)) maintained.edge_to_machine.push_back(owners[i]);
  }
  ASSERT_EQ(maintained.edge_to_machine.size(), mutated.num_edges());

  PartitionAssignment uniform;
  uniform.num_machines = 2;
  for (EdgeId i = 0; i < mutated.num_edges(); ++i) {
    uniform.edge_to_machine.push_back(static_cast<MachineId>(i % 2));
  }

  const WorkloadTraits traits = traits_from_stats(compute_stats(mutated), 1.0);
  const auto from_maintained =
      run_pagerank_with_migration(mutated, maintained, cluster, traits);
  const auto from_uniform =
      run_pagerank_with_migration(mutated, uniform, cluster, traits);
  EXPECT_LT(from_maintained.edges_migrated, from_uniform.edges_migrated / 2);
  EXPECT_LE(from_maintained.report.makespan_seconds,
            from_uniform.report.makespan_seconds);
}

}  // namespace
}  // namespace pglb
