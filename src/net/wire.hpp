// Versioned byte codec for net::Message frames (the wire format the socket
// transport ships between shard processes).
//
// Frame layout (all little-endian, built on the snapshot writer primitives):
//
//   u8[4]  magic   "NWFR"
//   u8     version (currently 1; decoders reject unknown versions outright,
//                   same policy as snapshots — no cross-version migration)
//   u16    tag
//   u64    from
//   u64    to
//   u64    payload byte count
//   u8[n]  payload bytes
//   u64    FNV-1a-64 checksum of everything above
//
// encode_frame refuses payloads above kMaxPayloadBytes, so no frame it
// emits exceeds kMaxFrameBytes — the bound the socket transport puts on a
// peer's length prefix. decode_frame throws WireError on wrong magic,
// unknown version, unknown tag, truncation, trailing bytes, or checksum
// mismatch — a frame either
// round-trips exactly or is rejected, never misparsed. Versioning rules are
// documented in DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace now::net {

/// Thrown on any malformed, truncated or corrupt frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Current frame format version. Bump on ANY layout change.
inline constexpr std::uint8_t kWireFormatVersion = 1;

/// Largest payload encode_frame accepts (1 MiB — a shard digest report,
/// the largest payload any protocol sends today, is 88 bytes).
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 20;

/// Bytes around the payload: magic 4, version 1, tag 2, from 8, to 8,
/// payload count 8, checksum 8.
inline constexpr std::size_t kFrameOverheadBytes = 4 + 1 + 2 + 8 + 8 + 8 + 8;

/// Largest frame encode_frame emits.
inline constexpr std::size_t kMaxFrameBytes =
    kFrameOverheadBytes + kMaxPayloadBytes;

/// Encodes `msg` into a self-contained checksummed frame. Throws WireError
/// when the payload exceeds kMaxPayloadBytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& msg);

/// Decodes a frame produced by encode_frame. The span must contain exactly
/// one frame (the socket transport length-prefixes frames, so boundaries
/// are known before decoding).
[[nodiscard]] Message decode_frame(std::span<const std::uint8_t> bytes);

}  // namespace now::net
