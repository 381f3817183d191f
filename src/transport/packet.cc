#include "src/transport/packet.h"

#include "src/net/link_layer.h"

namespace publishing {

Bytes SerializePacket(const Packet& packet) {
  Writer w;
  w.Reserve(kPacketFixedBytes + packet.link_blob.size() + packet.body.size() +
            kLinkTrailerBytes);
  w.WriteMessageId(packet.header.id);
  w.WriteProcessId(packet.header.src_process);
  w.WriteProcessId(packet.header.dst_process);
  w.WriteNodeId(packet.header.src_node);
  w.WriteNodeId(packet.header.dst_node);
  w.WriteU16(packet.header.channel);
  w.WriteU32(packet.header.code);
  w.WriteU8(packet.header.flags);
  w.WriteBytes(std::span<const uint8_t>(packet.link_blob.data(), packet.link_blob.size()));
  w.WriteBytes(std::span<const uint8_t>(packet.body.data(), packet.body.size()));
  return w.TakeBytes();
}

Result<Packet> ParsePacket(std::span<const uint8_t> bytes) {
  Reader r(bytes);
  Packet packet;
  auto id = r.ReadMessageId();
  if (!id.ok()) {
    return id.status();
  }
  packet.header.id = *id;
  auto src = r.ReadProcessId();
  if (!src.ok()) {
    return src.status();
  }
  packet.header.src_process = *src;
  auto dst = r.ReadProcessId();
  if (!dst.ok()) {
    return dst.status();
  }
  packet.header.dst_process = *dst;
  auto src_node = r.ReadNodeId();
  if (!src_node.ok()) {
    return src_node.status();
  }
  packet.header.src_node = *src_node;
  auto dst_node = r.ReadNodeId();
  if (!dst_node.ok()) {
    return dst_node.status();
  }
  packet.header.dst_node = *dst_node;
  auto channel = r.ReadU16();
  if (!channel.ok()) {
    return channel.status();
  }
  packet.header.channel = *channel;
  auto code = r.ReadU32();
  if (!code.ok()) {
    return code.status();
  }
  packet.header.code = *code;
  auto flags = r.ReadU8();
  if (!flags.ok()) {
    return flags.status();
  }
  packet.header.flags = *flags;
  auto link_blob = r.ReadBytes();
  if (!link_blob.ok()) {
    return link_blob.status();
  }
  packet.link_blob = std::move(*link_blob);
  auto body = r.ReadBytes();
  if (!body.ok()) {
    return body.status();
  }
  packet.body = std::move(*body);
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorrupt, "trailing bytes after packet");
  }
  return packet;
}

Bytes SerializeAck(const AckPacket& ack) {
  Writer w;
  w.Reserve(kAckBytes + kLinkTrailerBytes);
  w.WriteMessageId(ack.acked);
  w.WriteNodeId(ack.from);
  w.WriteNodeId(ack.to);
  return w.TakeBytes();
}

Result<AckPacket> ParseAck(std::span<const uint8_t> bytes) {
  Reader r(bytes);
  AckPacket ack;
  auto id = r.ReadMessageId();
  if (!id.ok()) {
    return id.status();
  }
  ack.acked = *id;
  auto from = r.ReadNodeId();
  if (!from.ok()) {
    return from.status();
  }
  ack.from = *from;
  auto to = r.ReadNodeId();
  if (!to.ok()) {
    return to.status();
  }
  ack.to = *to;
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorrupt, "trailing bytes after ack");
  }
  return ack;
}

}  // namespace publishing
