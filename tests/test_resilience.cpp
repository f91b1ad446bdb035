// Resilience primitives: deadlines, cooperative cancellation (explicit and
// ambient), the fault-injection spec grammar, and deterministic trigger
// behaviour of the fault registry (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "gen/powerlaw.hpp"
#include "obs/registry.hpp"
#include "partition/factory.hpp"
#include "partition/weights.hpp"
#include "util/deadline.hpp"
#include "util/fault.hpp"

namespace pglb {
namespace {

/// RAII guard: the fault registry is process-global, so every test that arms
/// it must disarm on every exit path.
struct FaultGuard {
  ~FaultGuard() { FaultRegistry::instance().clear(); }
};

TEST(Deadline, DefaultNeverExpires) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.is_never());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_seconds(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(Deadline::never().is_never());
}

TEST(Deadline, AfterExpiresOnSchedule) {
  const Deadline past = Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_FALSE(past.is_never());
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_seconds(), 0.0);

  const Deadline future = Deadline::after_ms(60'000);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_seconds(), 0.0);
}

TEST(CancelToken, ManualCancelFires) {
  const CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.check("site");  // not fired: no throw

  const CancelToken copy = token;  // copies share the flag
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.check("my.site");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelledError::Reason::kCancelled);
    EXPECT_EQ(e.site(), "my.site");
  }
}

TEST(CancelToken, ExpiredDeadlineFiresWithDeadlineReason) {
  const CancelToken token(Deadline::after(std::chrono::milliseconds(-1)));
  try {
    token.check("profiler.cell");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelledError::Reason::kDeadline);
    EXPECT_EQ(e.site(), "profiler.cell");
  }
}

TEST(CancelToken, ManualCancelWinsOverDeadline) {
  const CancelToken token(Deadline::after(std::chrono::milliseconds(-1)));
  token.cancel();
  try {
    token.check("site");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelledError::Reason::kCancelled);
  }
}

TEST(CancelToken, CheckCancelIsNoopOnNull) {
  check_cancel(nullptr, "anywhere");  // must not throw
}

TEST(CancelScope, InstallsAndRestoresAmbientToken) {
  EXPECT_EQ(CancelScope::current(), nullptr);
  poll_cancellation("noop");  // no scope: no-op
  const CancelToken outer;
  {
    const CancelScope outer_scope(outer);
    ASSERT_NE(CancelScope::current(), nullptr);
    const CancelToken inner;
    inner.cancel();
    {
      const CancelScope inner_scope(inner);
      EXPECT_THROW(poll_cancellation("inner"), CancelledError);
    }
    poll_cancellation("outer-again");  // outer token not fired
  }
  EXPECT_EQ(CancelScope::current(), nullptr);
}

TEST(CancelScope, DoesNotPropagateToOtherThreads) {
  const CancelToken token;
  const CancelScope scope(token);
  std::thread other([] { EXPECT_EQ(CancelScope::current(), nullptr); });
  other.join();
}

TEST(PartitionerCancellation, StreamingKindsHonourAmbientDeadline) {
  PowerLawConfig config;
  config.num_vertices = 40'000;  // > one 16384-edge poll stride
  config.alpha = 2.0;
  config.seed = 3;
  const EdgeList graph = generate_powerlaw(config);
  ASSERT_GT(graph.num_edges(), 16'384u);

  for (const PartitionerKind kind : {PartitionerKind::kHybrid, PartitionerKind::kHdrf,
                                     PartitionerKind::kOblivious, PartitionerKind::kGrid}) {
    SCOPED_TRACE(to_string(kind));
    const auto partitioner = make_partitioner(kind);
    // No scope: runs to completion.
    const auto baseline = partitioner->partition(graph, uniform_weights(4), 1);

    {
      const CancelToken fired(Deadline::after(std::chrono::milliseconds(-1)));
      const CancelScope scope(fired);
      try {
        partitioner->partition(graph, uniform_weights(4), 1);
        ADD_FAILURE() << "expected CancelledError";
      } catch (const CancelledError& e) {
        EXPECT_EQ(e.site(), std::string("partition.") + to_string(kind));
      }
    }

    // A live (unexpired) scope must not change the output.
    const CancelToken live(Deadline::after_ms(60'000));
    const CancelScope live_scope(live);
    const auto under_deadline = partitioner->partition(graph, uniform_weights(4), 1);
    EXPECT_EQ(baseline.edge_to_machine, under_deadline.edge_to_machine);
  }
}

TEST(FaultSpecs, ParsesActionsAndTriggers) {
  const auto specs = parse_fault_specs(
      "profiler.cell=fail;proxy.gen=stall:250@nth:3;server.parse=fail@prob:0.25:7");
  ASSERT_EQ(specs.size(), 3u);

  EXPECT_EQ(specs[0].site, "profiler.cell");
  EXPECT_EQ(specs[0].action, FaultSpec::Action::kFail);
  EXPECT_EQ(specs[0].trigger, FaultSpec::Trigger::kAlways);

  EXPECT_EQ(specs[1].site, "proxy.gen");
  EXPECT_EQ(specs[1].action, FaultSpec::Action::kStall);
  EXPECT_EQ(specs[1].stall_ms, 250u);
  EXPECT_EQ(specs[1].trigger, FaultSpec::Trigger::kNth);
  EXPECT_EQ(specs[1].nth, 3u);

  EXPECT_EQ(specs[2].trigger, FaultSpec::Trigger::kProb);
  EXPECT_DOUBLE_EQ(specs[2].probability, 0.25);
  EXPECT_EQ(specs[2].seed, 7u);

  EXPECT_TRUE(parse_fault_specs("").empty());
  EXPECT_TRUE(parse_fault_specs(";;").empty());
}

TEST(FaultSpecs, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_specs("no-equals"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("=fail"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("site=explode"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("site=stall"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("site=fail@sometimes"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("site=fail@nth:0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("site=fail@prob:1.5"), std::invalid_argument);
}

TEST(FaultRegistry, DisarmedIsANoop) {
  const FaultGuard guard;
  FaultRegistry::instance().clear();
  EXPECT_FALSE(FaultRegistry::instance().enabled());
  fault_point("profiler.cell");  // must not throw
  EXPECT_EQ(FaultRegistry::instance().hit_count("profiler.cell"), 0u);
}

TEST(FaultRegistry, NthTriggerFiresExactlyOnce) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("t.site=fail@nth:3");

  fault_point("t.site");
  fault_point("t.site");
  EXPECT_THROW(fault_point("t.site"), FaultInjectedError);
  fault_point("t.site");  // past the nth hit: disarmed again
  EXPECT_EQ(FaultRegistry::instance().hit_count("t.site"), 4u);
  EXPECT_EQ(FaultRegistry::instance().injected_count("t.site"), 1u);
  EXPECT_EQ(FaultRegistry::instance().injected_total(), 1u);
}

TEST(FaultRegistry, UnarmedSitesPassThrough) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("t.armed=fail");
  fault_point("t.other");  // enabled registry, different site: no throw
  EXPECT_EQ(FaultRegistry::instance().hit_count("t.other"), 0u);
}

TEST(FaultRegistry, ProbTriggerIsDeterministicPerSeed) {
  const FaultGuard guard;
  const auto fire_pattern = [](std::uint64_t seed) {
    FaultRegistry::instance().configure(
        "t.prob=fail@prob:0.5:" + std::to_string(seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool threw = false;
      try {
        fault_point("t.prob");
      } catch (const FaultInjectedError&) {
        threw = true;
      }
      fired.push_back(threw);
    }
    return fired;
  };

  const auto a = fire_pattern(7);
  const auto b = fire_pattern(7);
  EXPECT_EQ(a, b) << "same seed must fire on the same hit sequence";
  EXPECT_NE(a, fire_pattern(8)) << "different seeds must differ (p=0.5, 64 draws)";

  std::size_t fires = 0;
  for (const bool f : a) fires += f ? 1u : 0u;
  EXPECT_GT(fires, 16u);  // loose two-sided sanity bound on p=0.5
  EXPECT_LT(fires, 48u);
}

TEST(FaultRegistry, StallDelaysWithoutThrowing) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("t.stall=stall:60");
  const auto start = std::chrono::steady_clock::now();
  fault_point("t.stall");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 50);
  EXPECT_EQ(FaultRegistry::instance().injected_count("t.stall"), 1u);
}

TEST(FaultRegistry, FiredInjectionsCountIntoGlobalRegistry) {
  const FaultGuard guard;
  const std::uint64_t before = global_registry().counter("fault.injected");
  FaultRegistry::instance().configure("t.count=fail");
  EXPECT_THROW(fault_point("t.count"), FaultInjectedError);
  EXPECT_THROW(fault_point("t.count"), FaultInjectedError);
  EXPECT_EQ(global_registry().counter("fault.injected"), before + 2);
}

TEST(FaultRegistry, ClearDisarms) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("t.site=fail");
  EXPECT_TRUE(FaultRegistry::instance().enabled());
  FaultRegistry::instance().clear();
  EXPECT_FALSE(FaultRegistry::instance().enabled());
  fault_point("t.site");  // disarmed: no throw
}

TEST(FaultRegistry, ArmKeepsOtherSites) {
  const FaultGuard guard;
  FaultRegistry::instance().configure("t.a=fail@nth:100");
  FaultSpec extra;
  extra.site = "t.b";
  FaultRegistry::instance().arm(extra);
  EXPECT_THROW(fault_point("t.b"), FaultInjectedError);
  fault_point("t.a");  // still armed (nth:100 never reached), still counting
  EXPECT_EQ(FaultRegistry::instance().hit_count("t.a"), 1u);
}

}  // namespace
}  // namespace pglb
