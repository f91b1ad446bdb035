// Registry: counter/gauge/stage round-trips, deterministic JSON, name
// escaping, and the latency-histogram bucket geometry the percentiles
// stand on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/registry.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"

namespace pglb {
namespace {

TEST(Registry, CountersAccumulateAndEnumerateSorted) {
  Registry registry;
  registry.count("b.second");
  registry.count("a.first", 3);
  registry.count("b.second", 2);
  EXPECT_EQ(registry.counter("a.first"), 3u);
  EXPECT_EQ(registry.counter("b.second"), 3u);
  EXPECT_EQ(registry.counter("missing"), 0u);

  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.first");
  EXPECT_EQ(counters[1].first, "b.second");
}

TEST(Registry, GaugesOverwrite) {
  Registry registry;
  registry.set_gauge("pool.threads", 4.0);
  registry.set_gauge("pool.threads", 8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("pool.threads"), 8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("missing"), 0.0);
}

TEST(Registry, JsonIsDeterministicAndSorted) {
  Registry registry;
  registry.count("zeta");
  registry.count("alpha");
  registry.set_gauge("mid", 1.5);
  registry.observe("stage", 0.001);

  const std::string json = registry.to_json();
  EXPECT_EQ(json, registry.to_json());  // byte-stable across calls
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));

  const JsonValue parsed = parse_json(json);
  ASSERT_NE(parsed.find("counters"), nullptr);
  ASSERT_NE(parsed.find("gauges"), nullptr);
  ASSERT_NE(parsed.find("stages"), nullptr);
  EXPECT_EQ(parsed.find("counters")->find("alpha")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("gauges")->find("mid")->as_number(), 1.5);
  EXPECT_EQ(parsed.find("stages")->find("stage")->find("count")->as_number(), 1.0);
}

// Regression: metric names are emitted through the shared JSON escaper, so
// hostile names (quotes, backslashes, control bytes) cannot corrupt the
// document.
TEST(Registry, JsonEscapesHostileNames) {
  Registry registry;
  registry.count("quote\"backslash\\name");
  registry.count("newline\nname");
  registry.count("control\x01name");
  registry.set_gauge("tab\tgauge", 2.0);
  registry.observe("stage\"quoted", 0.002);

  const std::string json = registry.to_json();
  const JsonValue parsed = parse_json(json);  // throws if the escaping broke it
  ASSERT_NE(parsed.find("counters"), nullptr);
  EXPECT_EQ(parsed.find("counters")->find("quote\"backslash\\name")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("counters")->find("newline\nname")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("counters")->find("control\x01name")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("gauges")->find("tab\tgauge")->as_number(), 2.0);
  ASSERT_NE(parsed.find("stages")->find("stage\"quoted"), nullptr);
}

TEST(ServiceMetrics, DelegatesToRegistryWithEscaping) {
  ServiceMetrics metrics;
  metrics.count("requests\"total");
  metrics.observe("stage\\slash", 0.003);
  const JsonValue parsed = parse_json(metrics.to_json());
  EXPECT_EQ(parsed.find("counters")->find("requests\"total")->as_number(), 1.0);
  ASSERT_NE(parsed.find("stages")->find("stage\\slash"), nullptr);
}

TEST(ServiceMetrics, ExtraFragmentIsAppended) {
  ServiceMetrics metrics;
  metrics.count("requests_total");
  const JsonValue parsed = parse_json(metrics.to_json("\"cache\":{\"hits\":1}"));
  ASSERT_NE(parsed.find("cache"), nullptr);
  EXPECT_EQ(parsed.find("cache")->find("hits")->as_number(), 1.0);
}

TEST(ScopedTimerTest, RecordsIntoStageAndToleratesNull) {
  Registry registry;
  { const ScopedTimer timer(&registry, "scoped"); }
  { const ScopedTimer timer(nullptr, "ignored"); }  // must not crash
  const JsonValue parsed = parse_json(registry.to_json());
  EXPECT_EQ(parsed.find("stages")->find("scoped")->find("count")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("stages")->find("ignored"), nullptr);
}

// --- LatencyHistogram bucket geometry -------------------------------------

// Octave boundaries (bucket = 8k <=> floor = 2^k - 1 us) round-trip exactly:
// exp2(k) is exact in floating point, so bucket_of(bucket_floor_us(8k)) == 8k.
TEST(LatencyHistogram, OctaveBoundariesRoundTrip) {
  for (std::uint64_t k = 0; k <= 12; ++k) {
    const std::uint64_t bucket = 8 * k;
    const double floor_us = LatencyHistogram::bucket_floor_us(bucket);
    EXPECT_EQ(LatencyHistogram::bucket_of(floor_us), bucket) << "octave " << k;
  }
}

// General buckets: the midpoint between a bucket's floor and the next
// bucket's floor must land in the bucket (floor rounding makes the exact
// edges FP-sensitive; midpoints are safely interior).
TEST(LatencyHistogram, BucketMidpointsLandInBucket) {
  for (std::uint64_t bucket = 0; bucket < 96; ++bucket) {
    const double lo = LatencyHistogram::bucket_floor_us(bucket);
    const double hi = LatencyHistogram::bucket_floor_us(bucket + 1);
    ASSERT_LT(lo, hi);
    const double mid = lo + (hi - lo) / 2.0;
    EXPECT_EQ(LatencyHistogram::bucket_of(mid), bucket) << "bucket " << bucket;
  }
}

// Defined behavior at the degenerate edges: zero and negative latencies land
// in bucket 0, sub-microsecond latencies in the first octave — nothing goes
// out of range.
TEST(LatencyHistogram, DegenerateLatenciesStayInRange) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1e9), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.25), 2u);  // 8*log2(1.25) = 2.57...
  EXPECT_EQ(LatencyHistogram::bucket_of(0.5), 4u);   // 8*log2(1.5)  = 4.67...
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_floor_us(0), 0.0);
}

TEST(LatencyHistogram, RecordSecondsHandlesNegative) {
  LatencyHistogram histogram;
  histogram.record_seconds(-0.5);
  histogram.record_seconds(0.0);
  EXPECT_EQ(histogram.count(), 2u);
  // Both land in bucket 0, so every quantile is the bucket-0 floor.
  EXPECT_DOUBLE_EQ(histogram.quantile_seconds(0.99), 0.0);
}

// --- full-distribution bucket export (fleet satellite) ---------------------

TEST(LatencyHistogram, NonzeroBucketsAreSparseSortedAndComplete) {
  LatencyHistogram histogram;
  histogram.record_seconds(1e-6);   // ~1 us
  histogram.record_seconds(1e-6);
  histogram.record_seconds(1e-3);   // ~1 ms
  histogram.record_seconds(1.0);    // ~1 s

  const auto buckets = histogram.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 3u);  // occupied buckets only, no zero runs
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(buckets[i - 1].bucket, buckets[i].bucket);
    }
    EXPECT_DOUBLE_EQ(buckets[i].floor_us,
                     LatencyHistogram::bucket_floor_us(buckets[i].bucket));
    total += buckets[i].count;
  }
  EXPECT_EQ(total, histogram.count());  // nothing dropped, nothing doubled
  EXPECT_EQ(buckets.front().count, 2u);
}

TEST(Registry, StageBucketsExposeFullDistribution) {
  Registry registry;
  registry.observe("route", 1e-6);
  registry.observe("route", 2e-3);
  EXPECT_TRUE(registry.stage_buckets("unknown").empty());

  const auto buckets = registry.stage_buckets("route");
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].count + buckets[1].count, 2u);

  const auto names = registry.stage_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "route");
}

TEST(Registry, JsonBucketsAreOptInAndParseable) {
  Registry registry;
  registry.observe("plan", 5e-4);
  registry.observe("plan", 5e-4);

  // Default snapshot stays byte-identical to the classic quantile-only form.
  const std::string plain = registry.to_json();
  EXPECT_EQ(plain.find("\"buckets\""), std::string::npos);

  const std::string with_buckets = registry.to_json("", /*include_buckets=*/true);
  EXPECT_EQ(with_buckets, registry.to_json("", true));  // deterministic
  const JsonValue parsed = parse_json(with_buckets);
  const JsonValue* stage = parsed.find("stages")->find("plan");
  ASSERT_NE(stage, nullptr);
  const JsonValue* buckets = stage->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->as_array().size(), 1u);
  const auto& pair = buckets->as_array()[0].as_array();
  ASSERT_EQ(pair.size(), 2u);  // [floor_us, count]
  EXPECT_GT(pair[0].as_number(), 0.0);
  EXPECT_EQ(pair[1].as_number(), 2.0);
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.record_seconds(static_cast<double>(i) * 1e-6);
  }
  const double p50 = histogram.quantile_seconds(0.50);
  const double p90 = histogram.quantile_seconds(0.90);
  const double p99 = histogram.quantile_seconds(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p99, 0.0);
}

}  // namespace
}  // namespace pglb
