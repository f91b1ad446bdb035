#pragma once
// Durable warm-state snapshots (docs/PERSIST.md): a versioned, checksummed
// binary container in the wire.* header idiom.  A snapshot file is
//
//   [u32 magic][u32 version][u64 generation]          file header, 16 bytes
//   [u32 type][u32 len][u32 crc32(payload)][payload]  section, repeated
//   [u32 kEnd][u32 0][u32 crc32("")]                  end marker
//
// all little-endian.  Sections are length-prefixed and independently
// CRC-checked, so a reader can skip section types it does not know
// (forward compatibility: an old binary loads the sections it understands
// from a newer file of the SAME version; a bumped version is rejected).
// The end marker makes truncation detectable even when a file is cut
// exactly at a section boundary.
//
// Writes are atomic: the encoded bytes go to `<path>.tmp` which is renamed
// over `path`, the same publish idiom as util/portfile.hpp — a reader never
// observes a half-written snapshot, only the old file or the new one.
// Generation numbers are monotonic per path (writer = reader's generation
// + 1), so operators can tell a fresh snapshot from a stale survivor.
//
// Corruption policy: ANY defect — bad magic, future version, bad section
// CRC, truncated payload, missing end marker — throws SnapshotError.
// Callers (persist/warm_state.hpp) translate that into a logged cold start,
// never a crash.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pglb::persist {

/// First file-header field ("PGSN" read as a little-endian u32).
inline constexpr std::uint32_t kMagic = 0x4E534750u;

/// Container revision.  Readers accept versions <= kVersion and reject
/// anything newer — a downgrade must cold-start rather than misparse.
inline constexpr std::uint32_t kVersion = 1;

inline constexpr std::size_t kFileHeaderSize = 16;
inline constexpr std::size_t kSectionHeaderSize = 12;

/// Sanity cap on one section payload — a length above this is a corrupt
/// header, not a plausible cache snapshot (mirrors wire::kMaxPayload).
inline constexpr std::uint32_t kMaxSectionPayload = 64u << 20;

/// Known section types.  Unknown values are CRC-validated and skipped.
enum class SectionType : std::uint32_t {
  kProfileCache = 1,
  /// Older builds wrote a copy of the profiled times here.  Nothing reads it:
  /// the container CRC-checks and skips it like any unknown type.  The value
  /// stays reserved so it is never reused.
  kTimeDatabase = 2,
  kDynamicState = 3,  ///< delta-planner base registry (docs/DYNAMIC.md)
  kEnd = 0xFFFFFFFFu,  ///< empty terminator; required, so truncation is loud
};

/// Malformed or corrupt snapshot bytes.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.  Thin alias for the shared
/// pglb::crc32_ieee (util/crc32.hpp), kept so snapshot call sites read in
/// container terms.
std::uint32_t crc32(std::string_view bytes) noexcept;

// --- little-endian payload primitives --------------------------------------
// Section payloads are built from these four shapes only: u32, u64, IEEE
// doubles by bit pattern, and u32-length-prefixed strings.

void append_u32(std::string& out, std::uint32_t value);
void append_u64(std::string& out, std::uint64_t value);
void append_f64(std::string& out, double value);
void append_string(std::string& out, std::string_view value);

/// Bounds-checked forward reader over a payload; every read past the end
/// throws SnapshotError (a truncated payload must never misparse quietly).
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  double read_f64();
  std::string read_string();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  std::string_view take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- container -------------------------------------------------------------

struct SnapshotSection {
  std::uint32_t type = 0;
  std::string payload;
};

class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint64_t generation) : generation_(generation) {}

  void add_section(SectionType type, std::string payload);

  /// Header + sections + end marker as one byte string.
  std::string encode() const;

  /// Atomic publish: encode to `<path>.tmp`, then rename over `path`.
  /// Throws std::runtime_error on IO failure.
  void write(const std::string& path) const;

  std::uint64_t generation() const noexcept { return generation_; }

 private:
  std::uint64_t generation_;
  std::vector<SnapshotSection> sections_;
};

class SnapshotReader {
 public:
  /// Validate and explode `bytes`.  Throws SnapshotError on any corruption.
  static SnapshotReader parse(std::string_view bytes);

  /// Read + parse `path`.  A missing/unreadable file throws
  /// std::runtime_error; corrupt contents throw SnapshotError.
  static SnapshotReader read(const std::string& path);

  std::uint32_t version() const noexcept { return version_; }
  std::uint64_t generation() const noexcept { return generation_; }
  const std::vector<SnapshotSection>& sections() const noexcept { return sections_; }

  /// First section of `type`, or nullptr when the file carries none.
  const SnapshotSection* section(SectionType type) const noexcept;

 private:
  std::uint32_t version_ = kVersion;
  std::uint64_t generation_ = 0;
  std::vector<SnapshotSection> sections_;
};

/// Generation recorded in the snapshot at `path`, or nullopt when the file
/// is missing or too corrupt to carry one — the writer's "previous + 1" seed.
std::optional<std::uint64_t> read_snapshot_generation(const std::string& path);

}  // namespace pglb::persist
