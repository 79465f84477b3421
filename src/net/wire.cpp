#include "net/wire.hpp"

#include "core/snapshot.hpp"

namespace now::net {

namespace {

constexpr std::uint8_t kMagic[4] = {'N', 'W', 'F', 'R'};

}  // namespace

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  if (msg.payload.size() > kMaxPayloadBytes) {
    throw WireError("wire payload of " + std::to_string(msg.payload.size()) +
                    " bytes exceeds the frame bound");
  }
  core::SnapshotWriter w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u8(kWireFormatVersion);
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint16_t>(msg.tag)));
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint16_t>(msg.tag) >> 8));
  w.u64(msg.from.value());
  w.u64(msg.to.value());
  w.u64(msg.payload.size());
  if (!msg.payload.empty()) w.bytes(msg.payload.data(), msg.payload.size());
  const auto& body = w.buffer();
  w.u64(core::fnv1a64(body.data(), body.size()));
  return w.buffer();
}

Message decode_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameOverheadBytes) {
    throw WireError("wire frame truncated");
  }
  const std::size_t body_size = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(bytes[body_size +
                                               static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (stored != core::fnv1a64(bytes.data(), body_size)) {
    throw WireError("wire frame checksum mismatch");
  }

  core::SnapshotReader r{{bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(
                                              body_size)}};
  for (const std::uint8_t b : kMagic) {
    if (r.u8() != b) throw WireError("wire frame bad magic");
  }
  const std::uint8_t version = r.u8();
  if (version != kWireFormatVersion) {
    throw WireError("wire frame unknown version " + std::to_string(version));
  }
  const std::uint16_t tag =
      static_cast<std::uint16_t>(r.u8()) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(r.u8()) << 8);
  if (tag > kMaxTag) {
    throw WireError("wire frame unknown tag " + std::to_string(tag));
  }

  Message msg;
  msg.from = NodeId{r.u64()};
  msg.to = NodeId{r.u64()};
  msg.tag = static_cast<Tag>(tag);
  const std::uint64_t payload_size = r.u64();
  if (payload_size != r.remaining()) {
    throw WireError("wire frame payload size mismatch");
  }
  msg.payload.resize(static_cast<std::size_t>(payload_size));
  if (payload_size > 0) {
    r.bytes(msg.payload.data(), static_cast<std::size_t>(payload_size));
  }
  return msg;
}

}  // namespace now::net
