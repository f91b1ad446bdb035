#include "persist/warm_state.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "dynamic/delta_planner.hpp"
#include "obs/registry.hpp"
#include "service/planner.hpp"

namespace pglb::persist {

namespace {

void count_into(Registry* service_registry, std::string_view name,
                std::uint64_t delta = 1) {
  if (delta == 0) return;
  global_registry().count(name, delta);
  if (service_registry != nullptr) service_registry->count(name, delta);
}

void require(bool condition, const char* what) {
  if (!condition) throw SnapshotError(std::string("snapshot: ") + what);
}

bool positive_finite(double value) {
  return std::isfinite(value) && value > 0.0;
}

}  // namespace

std::string encode_profile_cache_section(
    std::span<const ProfileCache::ExportedEntry> entries) {
  std::string out;
  append_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const ProfileCache::ExportedEntry& exported : entries) {
    const ProfileEntry& entry = *exported.entry;
    append_string(out, exported.key);
    append_u64(out, exported.hits);
    append_f64(out, entry.proxy_alpha);
    append_f64(out, entry.proxy_full_edges);
    append_f64(out, entry.proxy_full_vertices);
    append_u32(out, static_cast<std::uint32_t>(entry.class_times.size()));
    for (const auto& [name, seconds] : entry.class_times) {
      append_string(out, name);
      append_f64(out, seconds);
    }
    // Sparse degree histogram: only occupied values, (value, count) pairs.
    const std::vector<std::uint64_t>& counts = entry.proxy_total_degree.counts();
    std::uint32_t occupied = 0;
    for (const std::uint64_t count : counts) {
      if (count != 0) ++occupied;
    }
    append_u32(out, occupied);
    for (std::size_t value = 0; value < counts.size(); ++value) {
      if (counts[value] != 0) {
        append_u64(out, value);
        append_u64(out, counts[value]);
      }
    }
  }
  return out;
}

std::vector<RestoredCacheEntry> decode_profile_cache_section(
    std::string_view payload) {
  Cursor cursor(payload);
  const std::uint32_t count = cursor.read_u32();
  std::vector<RestoredCacheEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RestoredCacheEntry restored;
    restored.key = cursor.read_string();
    require(!restored.key.empty(), "cache entry has an empty key");
    restored.hits = cursor.read_u64();
    auto entry = std::make_shared<ProfileEntry>();
    entry->proxy_alpha = cursor.read_f64();
    require(positive_finite(entry->proxy_alpha), "cache entry proxy_alpha invalid");
    entry->proxy_full_edges = cursor.read_f64();
    entry->proxy_full_vertices = cursor.read_f64();
    require(positive_finite(entry->proxy_full_edges) &&
                positive_finite(entry->proxy_full_vertices),
            "cache entry proxy size invalid");
    const std::uint32_t classes = cursor.read_u32();
    require(classes > 0, "cache entry has no class times");
    entry->class_times.reserve(classes);
    for (std::uint32_t c = 0; c < classes; ++c) {
      std::string name = cursor.read_string();
      const double seconds = cursor.read_f64();
      require(!name.empty(), "cache entry class name empty");
      require(positive_finite(seconds), "cache entry class time invalid");
      entry->class_times.emplace_back(std::move(name), seconds);
    }
    const std::uint32_t histogram = cursor.read_u32();
    for (std::uint32_t h = 0; h < histogram; ++h) {
      const std::uint64_t value = cursor.read_u64();
      const std::uint64_t occurrences = cursor.read_u64();
      require(occurrences > 0, "cache entry histogram count zero");
      entry->proxy_total_degree.add(value, occurrences);
    }
    restored.entry = std::move(entry);
    out.push_back(std::move(restored));
  }
  require(cursor.done(), "cache section has trailing bytes");
  return out;
}

std::string warm_snapshot_path(const std::string& dir) {
  return dir + "/warm.snap";
}

SnapshotIoResult save_warm_snapshot(const Planner& planner, const std::string& dir,
                                    Registry* service_registry,
                                    const dynamic::DeltaPlanner* delta) {
  SnapshotIoResult result;
  const std::string path = warm_snapshot_path(dir);
  try {
    const std::vector<ProfileCache::ExportedEntry> entries = planner.export_cache();
    SnapshotWriter writer(read_snapshot_generation(path).value_or(0) + 1);
    writer.add_section(SectionType::kProfileCache,
                       encode_profile_cache_section(entries));
    if (delta != nullptr && delta->base_count() > 0) {
      writer.add_section(SectionType::kDynamicState, delta->encode_state());
      result.dynamic_bases = delta->base_count();
    }
    result.bytes = writer.encode().size();
    writer.write(path);
    result.ok = true;
    result.generation = writer.generation();
    result.cache_entries = entries.size();
    count_into(service_registry, "persist.snapshots_written");
    count_into(service_registry, "persist.snapshot_bytes_written", result.bytes);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

SnapshotIoResult load_warm_snapshot(Planner& planner, const std::string& dir,
                                    Registry* service_registry,
                                    dynamic::DeltaPlanner* delta) {
  SnapshotIoResult result;
  const std::string path = warm_snapshot_path(dir);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      result.error = "no snapshot at " + path;  // quiet cold start
      return result;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  try {
    const SnapshotReader reader = SnapshotReader::parse(bytes);
    std::vector<RestoredCacheEntry> restored;
    if (const SnapshotSection* section = reader.section(SectionType::kProfileCache)) {
      restored = decode_profile_cache_section(section->payload);
    }
    // The dynamic section restores first: restore_state validates every base
    // before any reaches its registry, so a defective section throws here —
    // before the planner is touched — and the whole load stays a clean
    // rejection rather than a partially trusted restore.
    if (delta != nullptr) {
      if (const SnapshotSection* section =
              reader.section(SectionType::kDynamicState)) {
        result.dynamic_bases =
            delta->restore_state(std::string(section->payload));
        count_into(service_registry, "persist.bases_restored",
                   result.dynamic_bases);
      }
    }
    // Validation is complete — only now touch the planner, so a snapshot that
    // fails halfway through decode leaves no partial restore behind.
    for (RestoredCacheEntry& entry : restored) {
      if (planner.import_cache_entry(entry.key, std::move(entry.entry), entry.hits)) {
        ++result.cache_entries;
      }
    }
    result.ok = true;
    result.generation = reader.generation();
    result.bytes = bytes.size();
    count_into(service_registry, "persist.snapshots_loaded");
    count_into(service_registry, "persist.snapshot_bytes_loaded", result.bytes);
    count_into(service_registry, "persist.keys_restored", result.cache_entries);
  } catch (const std::exception& e) {
    result.ok = false;
    result.rejected = true;
    result.error = e.what();
    count_into(service_registry, "persist.snapshot_rejected");
  }
  return result;
}

}  // namespace pglb::persist
