// Snapshot subsystem — versioned binary serialization of the full
// deterministic state of a NOW deployment (DESIGN.md §8).
//
// A snapshot captures everything the protocol's future trajectory depends
// on: the NowState slot tables and free lists, each live slot's sorted
// member run (not the slab layout: load re-carves it packed, and layout is
// unobservable — DESIGN.md §9), the node/cluster id counters, the node -> home map (rebuilt from
// membership), the Byzantine and live-node sets IN THEIR DENSE ORDER (both
// orders are observable through uniform index draws and items()
// iteration), the overlay adjacency in its dense vertex order
// (random_vertex indexes it), the system RNG's raw 256-bit state, the
// batch/step counters — and the PlanCache's alias-sampler state (the stale
// Vose weights plus the dirty overlay list), because draw_biased's
// rejection pattern is observable through the per-op derived RNG streams.
// Everything else in the PlanCache (dense index tables, neighborhood
// populations) is a pure function of the restored state and is REBUILT on
// load, then debug-asserted consistent_with(state).
//
// Restore-then-continue is bit-identical to the uninterrupted run for
// every shard count (tests/core/snapshot_test.cpp).
//
// File format: an 8-byte magic, a little-endian u32 format version, the
// payload, and a trailing FNV-1a-64 checksum of the payload. Loading
// rejects wrong magic, unknown versions, truncation and checksum mismatch
// by throwing SnapshotError. The same Writer/Reader primitives back the
// scenario trace files (sim/trace.hpp) and scenario checkpoints.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace now::core {

class NowSystem;
struct NowParams;

/// Thrown on any malformed, truncated, corrupt or incompatible file.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Current format version of NowSystem snapshots. Bump rules (DESIGN.md
/// §9): bump on ANY payload layout change — loaders reject other versions
/// rather than misparse, and no cross-version migration is attempted. A
/// bump here also obligates bumping sim/trace.hpp's checkpoint version
/// (checkpoints embed a save_system payload); the trace format itself
/// (header + events, no embedded state) is unaffected.
///   v1 — per-cluster member lists, no slab geometry.
///   v2 — membership slab: explicit tail + per-slot extent (first/cap/size)
///        + bulk little-endian member block per live slot.
///   v3 — layout-free membership: per live slot only (id, size, bulk member
///        block); load carves the packed layout compact() produces.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Little-endian binary writer over an in-memory buffer. write_file frames
/// the buffer with magic + version + checksum.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s) {
    u64(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  /// Raw byte blob (the membership slab's bulk member write). The caller
  /// owns the layout and must keep it little-endian fixed-width.
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buffer_;
  }

  /// Writes magic (exactly 8 chars) + version + payload + checksum.
  void write_file(const std::string& path, std::string_view magic,
                  std::uint32_t version) const;

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Little-endian binary reader; every accessor throws SnapshotError on
/// truncation instead of reading past the end.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<std::uint8_t> payload)
      : payload_(std::move(payload)) {}

  /// Reads and validates a framed file (magic, version range, checksum).
  static SnapshotReader read_file(const std::string& path,
                                  std::string_view magic,
                                  std::uint32_t min_version,
                                  std::uint32_t max_version);

  [[nodiscard]] std::uint32_t version() const { return version_; }

  std::uint8_t u8() {
    need(1);
    return payload_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(payload_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(payload_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  /// Raw byte blob (bounds-checked); counterpart of SnapshotWriter::bytes.
  void bytes(void* out, std::size_t size) {
    need(size);
    std::memcpy(out, payload_.data() + pos_, size);
    pos_ += size;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(payload_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Reads an element count that precedes `element_size`-byte records and
  /// validates it against the bytes actually remaining, so a corrupt or
  /// hostile count can neither drive an unbounded allocation nor pass a
  /// wrapped-around need() check — counts always fail as SnapshotError.
  std::uint64_t count(std::uint64_t element_size) {
    const std::uint64_t n = u64();
    if (element_size != 0 &&
        n > (payload_.size() - pos_) / element_size) {
      throw SnapshotError("snapshot count exceeds remaining payload");
    }
    return n;
  }

  [[nodiscard]] bool at_end() const { return pos_ == payload_.size(); }

  /// Payload bytes not yet consumed (plausibility bounds on size fields
  /// that precede variable-size data, e.g. the slab tail).
  [[nodiscard]] std::uint64_t remaining() const {
    return payload_.size() - pos_;
  }

  // Random access within the payload — the seekable-trace machinery
  // (sim/trace.hpp v2): a trace footer records byte offsets of embedded
  // checkpoint frames and replay jumps straight to one. Offsets are
  // validated here so a corrupt footer fails as SnapshotError, never as an
  // out-of-range read.
  [[nodiscard]] std::uint64_t pos() const { return pos_; }
  [[nodiscard]] std::uint64_t size() const { return payload_.size(); }
  void seek(std::uint64_t pos) {
    if (pos > payload_.size()) {
      throw SnapshotError("seek offset past end of payload");
    }
    pos_ = static_cast<std::size_t>(pos);
  }

 private:
  void need(std::uint64_t bytes) const {
    // pos_ <= size always holds, so the subtraction cannot underflow and
    // the comparison cannot be defeated by a wrapping pos_ + bytes.
    if (bytes > payload_.size() - pos_) {
      throw SnapshotError("snapshot truncated mid-record");
    }
  }

  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

/// FNV-1a 64 over a byte range (the frame checksum).
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data,
                                    std::size_t size);

/// Serializes the behavior-relevant NowParams fields.
void save_params(const NowParams& params, SnapshotWriter& writer);

/// Reads params written by save_params.
[[nodiscard]] NowParams read_params(SnapshotReader& reader);

/// Reads params and throws SnapshotError naming the first field that
/// differs from `expected` (snapshots restore into a same-params system).
void check_params(const NowParams& expected, SnapshotReader& reader);

/// Serializes the complete deterministic state of `system` into `writer`
/// (the payload NowSystem::save frames into a file). Exposed so scenario
/// checkpoints can embed a system snapshot in a larger frame.
void save_system(const NowSystem& system, SnapshotWriter& writer);

/// Restores `system` (which must be freshly constructed with the same
/// NowParams — behavior-relevant parameter drift is rejected) from a
/// payload produced by save_system.
void load_system(NowSystem& system, SnapshotReader& reader);

}  // namespace now::core
