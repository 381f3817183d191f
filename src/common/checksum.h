// CRC-32 (IEEE 802.3 polynomial) used by the link layer (§4.3.3: "wrapping
// all messages with a rotating checksum") and by the token-ring recorder-ack
// trick (§6.1.2: the recorder complements the trailing checksum to invalidate
// a frame it failed to record).
//
// It runs over every byte of a guaranteed message at the sender, the
// recorder, each receiver and the WAL, so it is computed slicing-by-8:
// eight compile-time 256-entry tables advance the state 8 bytes per step,
// with a bytewise tail.  The values are those of the byte-at-a-time table
// CRC over the same polynomial.

#ifndef SRC_COMMON_CHECKSUM_H_
#define SRC_COMMON_CHECKSUM_H_

#include <cstdint>
#include <span>

namespace publishing {

// Computes the CRC-32 of `data` (reflected, init/final xor 0xFFFFFFFF —
// i.e. the common zlib/Ethernet CRC).
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: feed `data` into a running crc previously returned by
// Crc32Init()/Crc32Update(), then finish with Crc32Final().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t state);

}  // namespace publishing

#endif  // SRC_COMMON_CHECKSUM_H_
