// CRC32-framed append-only segment files — the on-disk unit of the
// recorder's durable log (§4.5: "it is possible to rebuild the data base
// from the disk").
//
// A segment is a header followed by length-prefixed records, each carrying
// the 8-byte global log sequence number (LSN) the WAL assigned it:
//
//   +--------------------------------------------+
//   | magic "PUBWAL01" (8) | version u32 | seq u64|   20-byte header
//   +--------------------------------------------+
//   | len u32 | crc32 u32 | lsn u64 | record ... |   record frame
//   | len u32 | crc32 u32 | lsn u64 | record ... |
//   | ...                                        |
//
// `len` and `crc32` cover the frame payload: the LSN followed by the
// journal record.  All integers are little-endian (the Writer/Reader
// convention).  A crash mid-append leaves a *torn tail*: a record whose
// length field points past end-of-file, a partial frame header, or a
// payload whose CRC does not match.  ScanSegment() stops at the first such
// frame and reports the valid prefix, so recovery drops exactly the
// unacknowledged tail and nothing else.

#ifndef SRC_STORAGE_LOG_SEGMENT_H_
#define SRC_STORAGE_LOG_SEGMENT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serialization.h"
#include "src/common/status.h"

namespace publishing {

// The only format this build reads or writes.  Version 1 (records without an
// LSN) is refused, never skipped: its records would silently vanish.
inline constexpr uint32_t kSegmentVersion = 2;
inline constexpr size_t kLsnBytes = 8;
inline constexpr size_t kSegmentMagicBytes = 8;
inline constexpr size_t kSegmentHeaderBytes = kSegmentMagicBytes + 4 + 8;
inline constexpr size_t kRecordFrameOverhead = 8;  // len + crc.
// Upper bound on a single record; a length field above this is corruption,
// not a huge record (the biggest legitimate record is a node checkpoint
// image, far below this).
inline constexpr uint32_t kMaxRecordBytes = 64u << 20;

// Returns the 20-byte segment header for segment `seq`.
Bytes EncodeSegmentHeader(uint64_t seq);
// Validates a header; returns the segment sequence number.  A short header
// or bad magic is kCorrupt (damage, e.g. a crash right after creation); a
// good magic with a version other than kSegmentVersion is kInvalidArgument
// (a layout this build cannot read).
Result<uint64_t> DecodeSegmentHeader(std::span<const uint8_t> data);

// Appends one framed payload to `out`.
void AppendRecordFrame(Bytes& out, std::span<const uint8_t> payload);

enum class FrameParse {
  kOk,       // A complete, CRC-valid record.
  kEnd,      // Exactly at end of data: clean end.
  kTorn,     // Frame extends past end of data (crash mid-write).
  kCorrupt,  // CRC mismatch or absurd length (bit rot / damage).
};

struct FrameDecodeResult {
  FrameParse parse = FrameParse::kEnd;
  std::span<const uint8_t> payload;  // Valid only when parse == kOk.
  size_t next_offset = 0;            // Offset just past this frame.
};

// Decodes the frame starting at `offset`.  Never throws, never reads out of
// bounds; garbage input yields kTorn/kCorrupt, not a crash.
FrameDecodeResult DecodeRecordFrame(std::span<const uint8_t> data, size_t offset);

// Buffered writer for one segment file.  Append() stages bytes in the stdio
// buffer; Sync() makes everything appended so far durable (fflush + fsync).
class SegmentWriter {
 public:
  SegmentWriter() = default;
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;
  SegmentWriter(SegmentWriter&& other) noexcept { *this = std::move(other); }
  SegmentWriter& operator=(SegmentWriter&& other) noexcept {
    if (this != &other) {
      Close();
      file_ = other.file_;
      path_ = std::move(other.path_);
      seq_ = other.seq_;
      bytes_ = other.bytes_;
      other.file_ = nullptr;
      other.seq_ = 0;
      other.bytes_ = 0;
    }
    return *this;
  }

  // Creates `path` (truncating any old file) and writes the header.
  Status Open(const std::string& path, uint64_t seq);
  // Appends `record` framed with its LSN.  The record is written from the
  // caller's buffer; only the 16-byte len|crc|lsn prefix is built here.
  Status Append(uint64_t lsn, std::span<const uint8_t> record);
  Status Sync();
  void Close();

  bool is_open() const { return file_ != nullptr; }
  // Bytes written so far, header included (staged bytes count).
  size_t bytes() const { return bytes_; }
  uint64_t seq() const { return seq_; }
  const std::string& path() const { return path_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t seq_ = 0;
  size_t bytes_ = 0;
};

// One record of a scanned segment: its LSN and where the journal record
// (past the LSN) sits in the file.
struct SegmentRecord {
  uint64_t lsn = 0;
  size_t offset = 0;
  uint32_t size = 0;
};

struct SegmentScan {
  uint64_t seq = 0;
  Bytes data;                          // The whole file.
  std::vector<SegmentRecord> records;  // In append order.
  bool clean = true;          // False when a torn/corrupt tail was dropped.
  FrameParse tail = FrameParse::kEnd;
  size_t valid_bytes = 0;     // Length of the parseable prefix.
  size_t dropped_bytes = 0;   // Bytes past the valid prefix.

  std::span<const uint8_t> record(size_t i) const {
    return std::span<const uint8_t>(data).subspan(records[i].offset, records[i].size);
  }
};

// Reads a whole segment file, stopping at the first torn or corrupt frame (a
// CRC-valid frame too short to hold an LSN counts as corrupt).  Only an
// unreadable file or a bad header is an error; a damaged tail is reported
// via `clean`/`tail`, because that is the expected shape of a crash.
Result<SegmentScan> ScanSegment(const std::string& path);

// Reads the raw bytes of `path` into `out`, reusing its capacity.
Status ReadSegmentFile(const std::string& path, Bytes& out);

}  // namespace publishing

#endif  // SRC_STORAGE_LOG_SEGMENT_H_
