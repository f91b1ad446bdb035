// Durable warm state (docs/PERSIST.md): the snapshot container codec, the
// warm-state save/restore round trip, the corruption robustness matrix
// (truncated / flipped CRC / future version / empty section -> clean cold
// start, persist.snapshot_rejected bumped, never a crash), restored-cache
// byte-determinism across thread counts, and the peer-warming helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "persist/snapshot.hpp"
#include "persist/warm_state.hpp"
#include "service/planner.hpp"
#include "service/profile_key.hpp"
#include "service/protocol.hpp"
#include "test_helpers.hpp"

namespace pglb {
namespace {

using persist::SectionType;
using persist::SnapshotError;
using persist::SnapshotReader;
using persist::SnapshotWriter;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fresh per-test snapshot directory inside this process's scratch dir.
std::string fresh_dir(const std::string& tag) {
  static const testing::ScratchDir root("persist");
  const auto dir = root.path() / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

PlannerOptions tiny_options(unsigned threads = 0) {
  PlannerOptions options;
  options.proxy_scale = 0.002;  // keep profiling misses fast in tests
  options.threads = threads;
  return options;
}

PlanRequest basic_request(const std::string& id = "t1") {
  PlanRequest request;
  request.id = id;
  request.app = AppKind::kPageRank;
  request.machines = {"m4.2xlarge", "c4.2xlarge"};
  request.vertices = 1'000'000;
  request.edges = 10'000'000;
  return request;
}

// --- container codec --------------------------------------------------------

TEST(SnapshotCodec, RoundTripsSectionsAndGeneration) {
  SnapshotWriter writer(7);
  writer.add_section(SectionType::kProfileCache, "cache-bytes");
  writer.add_section(SectionType::kTimeDatabase, "pool-bytes");
  const std::string bytes = writer.encode();

  const SnapshotReader reader = SnapshotReader::parse(bytes);
  EXPECT_EQ(reader.version(), persist::kVersion);
  EXPECT_EQ(reader.generation(), 7u);
  ASSERT_EQ(reader.sections().size(), 2u);
  ASSERT_NE(reader.section(SectionType::kProfileCache), nullptr);
  EXPECT_EQ(reader.section(SectionType::kProfileCache)->payload, "cache-bytes");
  ASSERT_NE(reader.section(SectionType::kTimeDatabase), nullptr);
  EXPECT_EQ(reader.section(SectionType::kTimeDatabase)->payload, "pool-bytes");
}

TEST(SnapshotCodec, UnknownSectionTypesAreCrcCheckedAndKept) {
  // Forward compatibility: a reader walks (and CRC-validates) section types
  // it does not recognise instead of failing the whole file.
  SnapshotWriter writer(1);
  writer.add_section(static_cast<SectionType>(0x77u), "mystery");
  writer.add_section(SectionType::kProfileCache, "cache");
  const SnapshotReader reader = SnapshotReader::parse(writer.encode());
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_EQ(reader.sections()[0].type, 0x77u);
  ASSERT_NE(reader.section(SectionType::kProfileCache), nullptr);
}

TEST(SnapshotCodec, RejectsBadMagicFutureVersionAndTruncation) {
  SnapshotWriter writer(3);
  writer.add_section(SectionType::kProfileCache, "payload");
  const std::string good = writer.encode();

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(SnapshotReader::parse(bad_magic), SnapshotError);

  std::string future = good;
  future[4] = static_cast<char>(persist::kVersion + 1);
  EXPECT_THROW(SnapshotReader::parse(future), SnapshotError);

  // Truncation anywhere — mid-header, mid-payload, and exactly at the
  // section boundary (the end marker makes the last one loud).
  for (const std::size_t keep :
       {std::size_t{4}, persist::kFileHeaderSize + 3,
        good.size() - persist::kSectionHeaderSize, good.size() - 1}) {
    EXPECT_THROW(SnapshotReader::parse(good.substr(0, keep)), SnapshotError)
        << "kept " << keep << " of " << good.size() << " bytes";
  }

  // Trailing garbage after the end marker is corruption, not slack.
  EXPECT_THROW(SnapshotReader::parse(good + "x"), SnapshotError);
}

TEST(SnapshotCodec, RejectsFlippedPayloadByte) {
  SnapshotWriter writer(1);
  writer.add_section(SectionType::kProfileCache, "payload-under-crc");
  std::string bytes = writer.encode();
  bytes[persist::kFileHeaderSize + persist::kSectionHeaderSize + 2] ^= 0x01;
  EXPECT_THROW(SnapshotReader::parse(bytes), SnapshotError);
}

TEST(SnapshotCodec, AtomicWriteLeavesNoTmpFile) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/warm.snap";
  SnapshotWriter writer(5);
  writer.add_section(SectionType::kProfileCache, "abc");
  writer.write(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(SnapshotReader::read(path).generation(), 5u);
  EXPECT_EQ(persist::read_snapshot_generation(path), std::optional<std::uint64_t>{5});
}

TEST(SnapshotCodec, CursorThrowsPastEnd) {
  std::string payload;
  persist::append_u32(payload, 42);
  persist::Cursor cursor(payload);
  EXPECT_EQ(cursor.read_u32(), 42u);
  EXPECT_TRUE(cursor.done());
  EXPECT_THROW(cursor.read_u32(), SnapshotError);
}

// --- warm-state save/restore ------------------------------------------------

TEST(WarmState, SaveRestoreRoundTripsCacheAndTimeDatabase) {
  const std::string dir = fresh_dir("roundtrip");
  Planner source(tiny_options());
  ASSERT_TRUE(source.plan(basic_request()).ok);
  PlanRequest second = basic_request("t2");
  second.app = AppKind::kColoring;
  ASSERT_TRUE(source.plan(second).ok);

  const persist::SnapshotIoResult saved = persist::save_warm_snapshot(source, dir);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.generation, 1u);
  EXPECT_EQ(saved.cache_entries, 2u);
  EXPECT_GT(saved.bytes, persist::kFileHeaderSize);

  Planner restored(tiny_options());
  const persist::SnapshotIoResult loaded = persist::load_warm_snapshot(restored, dir);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_FALSE(loaded.rejected);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.cache_entries, 2u);
  EXPECT_EQ(restored.cache_stats().size, 2u);
  // The profiled per-class times (the CCR pool) travel inside the entries.
  const auto before = source.export_cache();
  const auto after = restored.export_cache();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].entry->class_times, before[i].entry->class_times);
  }

  // Serving from the restored entries is all hits, no re-profiling.
  ASSERT_TRUE(restored.plan(basic_request()).ok);
  ASSERT_TRUE(restored.plan(second).ok);
  EXPECT_EQ(restored.cache_stats().hits, 2u);
  EXPECT_EQ(restored.cache_stats().misses, 0u);
}

TEST(WarmState, GenerationsAreMonotonicPerPath) {
  const std::string dir = fresh_dir("generation");
  Planner planner(tiny_options());
  ASSERT_TRUE(planner.plan(basic_request()).ok);
  EXPECT_EQ(persist::save_warm_snapshot(planner, dir).generation, 1u);
  EXPECT_EQ(persist::save_warm_snapshot(planner, dir).generation, 2u);
  EXPECT_EQ(persist::save_warm_snapshot(planner, dir).generation, 3u);
}

TEST(WarmState, MissingFileIsQuietColdStart) {
  const std::string dir = fresh_dir("missing");
  const std::uint64_t rejected_before =
      global_registry().counter("persist.snapshot_rejected");
  Planner planner(tiny_options());
  const persist::SnapshotIoResult result = persist::load_warm_snapshot(planner, dir);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.rejected);
  EXPECT_EQ(global_registry().counter("persist.snapshot_rejected"), rejected_before);
}

/// The robustness matrix of docs/PERSIST.md: every corruption shape loads as
/// a clean cold start — result.rejected, counter bumped, planner untouched
/// and still able to plan.
void expect_rejected_cold_start(const std::string& dir, const char* what) {
  const std::uint64_t rejected_before =
      global_registry().counter("persist.snapshot_rejected");
  Planner planner(tiny_options());
  const persist::SnapshotIoResult result = persist::load_warm_snapshot(planner, dir);
  EXPECT_FALSE(result.ok) << what;
  EXPECT_TRUE(result.rejected) << what;
  EXPECT_EQ(global_registry().counter("persist.snapshot_rejected"),
            rejected_before + 1)
      << what;
  EXPECT_EQ(planner.cache_stats().size, 0u) << what;
  EXPECT_TRUE(planner.plan(basic_request()).ok) << what;  // cold but healthy
}

TEST(WarmState, TruncatedSnapshotIsRejectedColdStart) {
  const std::string dir = fresh_dir("truncated");
  Planner source(tiny_options());
  ASSERT_TRUE(source.plan(basic_request()).ok);
  ASSERT_TRUE(persist::save_warm_snapshot(source, dir).ok);

  const std::string path = persist::warm_snapshot_path(dir);
  const std::string good = read_file(path);
  write_file(path, good.substr(0, good.size() / 2));
  expect_rejected_cold_start(dir, "truncated");
}

TEST(WarmState, FlippedCrcByteIsRejectedColdStart) {
  const std::string dir = fresh_dir("crcflip");
  Planner source(tiny_options());
  ASSERT_TRUE(source.plan(basic_request()).ok);
  ASSERT_TRUE(persist::save_warm_snapshot(source, dir).ok);

  const std::string path = persist::warm_snapshot_path(dir);
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;  // somewhere inside a section payload
  write_file(path, bytes);
  expect_rejected_cold_start(dir, "flipped CRC byte");
}

TEST(WarmState, FutureVersionIsRejectedColdStart) {
  const std::string dir = fresh_dir("future");
  Planner source(tiny_options());
  ASSERT_TRUE(source.plan(basic_request()).ok);
  ASSERT_TRUE(persist::save_warm_snapshot(source, dir).ok);

  const std::string path = persist::warm_snapshot_path(dir);
  std::string bytes = read_file(path);
  bytes[4] = static_cast<char>(persist::kVersion + 1);
  write_file(path, bytes);
  expect_rejected_cold_start(dir, "future version");
}

TEST(WarmState, EmptySectionPayloadIsRejectedColdStart) {
  // A kProfileCache section with a zero-length payload passes the container
  // CRC but cannot even carry its entry count — the decode layer must treat
  // it as corruption, not as "zero entries".
  const std::string dir = fresh_dir("emptysec");
  SnapshotWriter writer(1);
  writer.add_section(SectionType::kProfileCache, "");
  writer.write(persist::warm_snapshot_path(dir));
  expect_rejected_cold_start(dir, "empty section payload");
}

TEST(WarmState, SectionlessSnapshotLoadsAsZeroEntries) {
  // Header + end marker only: structurally valid, just nothing persisted.
  const std::string dir = fresh_dir("bare");
  SnapshotWriter writer(4);
  writer.write(persist::warm_snapshot_path(dir));
  Planner planner(tiny_options());
  const persist::SnapshotIoResult result = persist::load_warm_snapshot(planner, dir);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.cache_entries, 0u);
  EXPECT_EQ(planner.cache_stats().size, 0u);
}

TEST(WarmState, OlderSnapshotWithATimeDatabaseSectionRestoresWarm) {
  // Older builds also wrote a kTimeDatabase section ((app, proxy alpha,
  // machine class) -> seconds, the same times the cache entries carry).
  // Nothing reads it now: the container CRC-checks and skips it, so such a
  // snapshot restores warm, and so does one whose section would not decode.
  Planner source(tiny_options());
  PlanRequest second = basic_request("t2");
  second.app = AppKind::kColoring;
  const std::string fresh_a = serialize_response(source.plan(basic_request()));
  const std::string fresh_b = serialize_response(source.plan(second));
  const auto entries = source.export_cache();

  std::string pool;  // the older builds' encoding of the section
  std::uint32_t rows = 0;
  for (const auto& exported : entries) rows += exported.entry->class_times.size();
  persist::append_u32(pool, rows);
  for (const auto& exported : entries) {
    const auto key = ProfileKey::parse(exported.key);
    ASSERT_TRUE(key.has_value()) << exported.key;
    for (const auto& [machine, seconds] : exported.entry->class_times) {
      persist::append_string(pool, to_string(key->app));
      persist::append_f64(pool, exported.entry->proxy_alpha);
      persist::append_string(pool, machine);
      persist::append_f64(pool, seconds);
    }
  }

  for (const std::string& payload : {pool, std::string("not a pool")}) {
    const std::string dir = fresh_dir("oldpool");
    SnapshotWriter writer(3);
    writer.add_section(SectionType::kProfileCache,
                       persist::encode_profile_cache_section(entries));
    writer.add_section(SectionType::kTimeDatabase, payload);
    writer.write(persist::warm_snapshot_path(dir));

    Planner restored(tiny_options());
    const persist::SnapshotIoResult loaded = persist::load_warm_snapshot(restored, dir);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_FALSE(loaded.rejected);
    EXPECT_EQ(loaded.generation, 3u);
    EXPECT_EQ(loaded.cache_entries, 2u);
    EXPECT_EQ(serialize_response(restored.plan(basic_request())), fresh_a);
    EXPECT_EQ(serialize_response(restored.plan(second)), fresh_b);
    EXPECT_EQ(restored.cache_stats().hits, 2u);
    EXPECT_EQ(restored.cache_stats().misses, 0u);
  }
}

// --- byte-determinism across restore and thread counts ----------------------

TEST(WarmState, RestoredPlansByteIdenticalAcrossThreadCounts) {
  // The tentpole invariant: a plan served from a RESTORED cache entry is
  // byte-identical to a freshly profiled one — at any worker-pool width,
  // since entries are emplaced in class order regardless of threads.
  const std::string dir = fresh_dir("determinism");
  PlanRequest request = basic_request();
  PlanRequest second = basic_request("t2");
  second.app = AppKind::kConnectedComponents;
  second.machines = {"c4.xlarge", "c4.2xlarge", "c4.4xlarge"};

  Planner source(tiny_options(1));
  const std::string fresh_a = serialize_response(source.plan(request));
  const std::string fresh_b = serialize_response(source.plan(second));
  ASSERT_TRUE(persist::save_warm_snapshot(source, dir).ok);

  for (const unsigned threads : {1u, 2u, 8u}) {
    Planner restored(tiny_options(threads));
    ASSERT_TRUE(persist::load_warm_snapshot(restored, dir).ok);
    EXPECT_EQ(serialize_response(restored.plan(request)), fresh_a)
        << "threads=" << threads;
    EXPECT_EQ(serialize_response(restored.plan(second)), fresh_b)
        << "threads=" << threads;
    // Both answers came from the restored entries, not a re-profile.
    EXPECT_EQ(restored.cache_stats().misses, 0u) << "threads=" << threads;
  }
}

TEST(WarmState, SnapshotBytesDeterministicAcrossThreadCounts) {
  // Same traffic, any thread count -> byte-identical snapshot files (modulo
  // the generation field, held constant here by saving into fresh dirs).
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string dir = fresh_dir("bytes_t" + std::to_string(threads));
    Planner planner(tiny_options(threads));
    ASSERT_TRUE(planner.plan(basic_request()).ok);
    PlanRequest second = basic_request("t2");
    second.app = AppKind::kColoring;
    ASSERT_TRUE(planner.plan(second).ok);
    ASSERT_TRUE(persist::save_warm_snapshot(planner, dir).ok);
    const std::string bytes = read_file(persist::warm_snapshot_path(dir));
    if (baseline.empty()) {
      baseline = bytes;
    } else {
      EXPECT_EQ(bytes, baseline) << "threads=" << threads;
    }
  }
}

// --- hot keys + peer-warming helpers ----------------------------------------

TEST(WarmState, HotKeysOrderByHitsDescending) {
  Planner planner(tiny_options());
  const PlanRequest hot = basic_request();
  PlanRequest cold = basic_request("t2");
  cold.app = AppKind::kColoring;
  ASSERT_TRUE(planner.plan(cold).ok);             // 0 hits
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(planner.plan(hot).ok);  // 2 hits

  const auto keys = planner.hot_keys(8);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].first, planner.profile_key(hot));
  EXPECT_EQ(keys[0].second, 2u);
  EXPECT_EQ(keys[1].second, 0u);
  EXPECT_EQ(planner.hot_keys(1).size(), 1u);
}

TEST(Warming, ProfileKeyRoundTripsThroughPlanRequest) {
  Planner planner(tiny_options());
  const PlanRequest original = basic_request();
  const std::string key = planner.profile_key(original);

  const auto parsed = ProfileKey::parse(key);
  ASSERT_TRUE(parsed.has_value()) << key;
  EXPECT_EQ(parsed->encode(), key);
  // The invariant peer warming rests on: profiling the rebuilt request
  // recreates exactly the cache entry the key names.
  const PlanRequest rebuilt = parsed->request();
  EXPECT_EQ(planner.profile_key(rebuilt), key);
  EXPECT_TRUE(planner.plan(rebuilt).ok);
}

/// Texts no replica writes as a profile key.  Also seeds the parser fuzz.
const std::vector<std::string> kMalformedKeys = {
    "", "no-pipes", "a|b", "a|b|c|d", "|pagerank|2.1", "m+|pagerank|2.1",
    "m4.2xlarge|not_an_app|2.1", "m4.2xlarge|pagerank|", "m4.2xlarge|pagerank|x",
    "m4.2xlarge|pagerank|2.1junk", "m4.2xlarge|pagerank|0.5",
    "m4.2xlarge|pagerank|inf",
    // Unknown, unsorted and duplicated machine classes.
    "m4|pagerank|2.1", "m4.2xlarge+|pagerank|2.1", "+m4.2xlarge|pagerank|2.1",
    "m4.2xlarge+c4.2xlarge|pagerank|2.1", "c4.2xlarge+c4.2xlarge|pagerank|2.1",
    // Valid alphas in spellings canonical_alpha() never writes.
    "m4.2xlarge|pagerank|2.10", "m4.2xlarge|pagerank|2.1e0", "m4.2xlarge|pagerank|+2.1",
    "m4.2xlarge|pagerank|02.1", "m4.2xlarge|pagerank| 2.1", "m4.2xlarge|Pagerank|2.1",
    // Alphas no request resolves to: inside a stock margin, between lattice
    // points, past the lattice ends, non-finite.
    "m4.2xlarge|pagerank|2.5", "m4.2xlarge|pagerank|2.2", "m4.2xlarge|pagerank|3.2",
    "m4.2xlarge|pagerank|1", "m4.2xlarge|pagerank|64.25", "m4.2xlarge|pagerank|-0",
    "m4.2xlarge|pagerank|1e+308", "m4.2xlarge|pagerank|nan",
    "m4.2xlarge|pagerank|2.1|"};

TEST(Warming, MalformedProfileKeysAreRejected) {
  for (const std::string& bad : kMalformedKeys) {
    EXPECT_FALSE(ProfileKey::parse(bad).has_value()) << bad;
  }
}

TEST(Warming, FuzzedProfileKeysParseOnlyInCanonicalForm) {
  // parse() reads peers' warm_keys answers, so it sees untrusted bytes.  Its
  // contract: it accepts a text exactly when that text is the encoding of
  // the key it parses to, and that key is one a request resolves to.
  const std::vector<std::string> valid = {
      "c4.2xlarge+m4.2xlarge|pagerank|1.95", "c4.2xlarge+m4.2xlarge|coloring|2.1",
      "c4.2xlarge+c4.4xlarge+c4.xlarge|sssp|2.3", "xeon_server_l+xeon_server_s|kcore|1.25",
      "m4.2xlarge+r3.2xlarge|triangle_count|3.25", "c4.8xlarge|connected_components|64",
      "c4.2xlarge+m4.2xlarge|pagerank|2.75", "c4.xlarge|pagerank|1.5"};
  for (const std::string& key : valid) {
    const auto parsed = ProfileKey::parse(key);
    ASSERT_TRUE(parsed.has_value()) << key;
    EXPECT_EQ(parsed->encode(), key);
    EXPECT_EQ(ProfileKey::of(parsed->request()), *parsed) << key;
  }

  std::vector<std::string> corpus = kMalformedKeys;
  corpus.insert(corpus.end(), valid.begin(), valid.end());
  testing::TextMutator mutator(corpus, 19);
  std::size_t accepted = 0;
  for (int round = 0; round < 50'000; ++round) {
    const std::string text = mutator.next();
    const auto parsed = ProfileKey::parse(text);
    if (!parsed) continue;
    ++accepted;
    ASSERT_EQ(parsed->encode(), text);
    ASSERT_EQ(ProfileKey::of(parsed->request()), *parsed) << text;
  }
  EXPECT_GT(accepted, 0u);  // splices of valid keys do parse
}

TEST(Warming, WarmedReplicaRecreatesThePeersEntriesBitForBit) {
  // Replaying a peer's keys through parse() and request() on a fresh replica
  // reproduces the peer's entries exactly, out-of-coverage ones included:
  // their proxies come from the alpha and the suite seed, not from history.
  Planner peer(tiny_options());
  for (const PlanRequest& request : testing::out_of_coverage_sweep()) {
    ASSERT_TRUE(peer.plan(request).ok) << request.id;
  }
  ASSERT_TRUE(peer.plan(basic_request()).ok);

  Planner newcomer(tiny_options());
  const auto exported = peer.export_cache();
  for (const auto& entry : exported) {
    const auto key = ProfileKey::parse(entry.key);
    ASSERT_TRUE(key.has_value()) << entry.key;
    ASSERT_TRUE(newcomer.plan(key->request()).ok) << entry.key;
  }
  // A one-entry cache section carries the key, the class times and the
  // proxy fields as raw bits, so equal sections mean bit-identical entries.
  const auto section = [](const ProfileCache::ExportedEntry& entry) {
    return persist::encode_profile_cache_section(
        std::vector<ProfileCache::ExportedEntry>{{entry.key, 0, entry.entry}});
  };
  std::map<std::string, std::string> warmed;
  for (const auto& entry : newcomer.export_cache()) warmed[entry.key] = section(entry);
  ASSERT_EQ(warmed.size(), exported.size());
  for (const auto& entry : exported) {
    EXPECT_EQ(warmed[entry.key], section(entry)) << entry.key;
  }
}

}  // namespace
}  // namespace pglb
