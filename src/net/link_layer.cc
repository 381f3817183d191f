#include "src/net/link_layer.h"

#include <utility>

#include "src/common/checksum.h"

namespace publishing {

Buffer LinkWrap(Bytes body) {
  const uint32_t crc = Crc32(std::span<const uint8_t>(body.data(), body.size()));
  for (size_t i = 0; i < kLinkTrailerBytes; ++i) {
    body.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return Buffer(std::move(body));
}

Result<Buffer> LinkUnwrap(const Buffer& payload) {
  if (payload.size() < kLinkTrailerBytes) {
    return Status(StatusCode::kCorrupt, "frame shorter than CRC trailer");
  }
  const size_t body_len = payload.size() - kLinkTrailerBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kLinkTrailerBytes; ++i) {
    stored |= static_cast<uint32_t>(payload[body_len + i]) << (8 * i);
  }
  const uint32_t computed = Crc32(std::span<const uint8_t>(payload.data(), body_len));
  if (stored != computed) {
    return Status(StatusCode::kCorrupt, "CRC mismatch");
  }
  return payload.Slice(0, body_len);
}

Buffer LinkInvalidate(const Buffer& payload) {
  if (payload.size() < kLinkTrailerBytes) {
    return payload;
  }
  return payload.MutateCopy([](Bytes& bytes) {
    for (size_t i = bytes.size() - kLinkTrailerBytes; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(~bytes[i]);
    }
  });
}

Buffer LinkCorrupt(const Buffer& payload, size_t index) {
  if (payload.empty()) {
    return payload;
  }
  return payload.MutateCopy(
      [index](Bytes& bytes) { bytes[index % bytes.size()] ^= 0x5A; });
}

}  // namespace publishing
