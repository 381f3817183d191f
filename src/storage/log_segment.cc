#include "src/storage/log_segment.h"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "src/common/checksum.h"

namespace publishing {

namespace {
constexpr char kMagic[kSegmentMagicBytes] = {'P', 'U', 'B', 'W', 'A', 'L', '0', '1'};

Status IoError(const char* what, const std::string& path) {
  return Status(StatusCode::kInternal,
                std::string(what) + " " + path + ": " + std::strerror(errno));
}

void PutLe(uint8_t* out, uint64_t v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetLe(const uint8_t* in, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}
}  // namespace

Bytes EncodeSegmentHeader(uint64_t seq) {
  Writer w;
  w.WriteRaw(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(kMagic),
                                      kSegmentMagicBytes));
  w.WriteU32(kSegmentVersion);
  w.WriteU64(seq);
  return w.TakeBytes();
}

Result<uint64_t> DecodeSegmentHeader(std::span<const uint8_t> data) {
  if (data.size() < kSegmentHeaderBytes) {
    return Status(StatusCode::kCorrupt, "segment shorter than its header");
  }
  if (std::memcmp(data.data(), kMagic, kSegmentMagicBytes) != 0) {
    return Status(StatusCode::kCorrupt, "bad segment magic");
  }
  Reader r(data.subspan(kSegmentMagicBytes));
  const uint32_t version = *r.ReadU32();
  if (version != kSegmentVersion) {
    return Status(StatusCode::kInvalidArgument,
                  "unsupported segment format version " + std::to_string(version));
  }
  return *r.ReadU64();
}

void AppendRecordFrame(Bytes& out, std::span<const uint8_t> payload) {
  uint8_t header[kRecordFrameOverhead];
  PutLe(header, payload.size(), 4);
  PutLe(header + 4, Crc32(payload), 4);
  out.insert(out.end(), header, header + kRecordFrameOverhead);
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameDecodeResult DecodeRecordFrame(std::span<const uint8_t> data, size_t offset) {
  FrameDecodeResult result;
  result.next_offset = offset;
  if (offset >= data.size()) {
    result.parse = FrameParse::kEnd;
    return result;
  }
  if (data.size() - offset < kRecordFrameOverhead) {
    result.parse = FrameParse::kTorn;  // Partial frame header.
    return result;
  }
  Reader r(data.subspan(offset, kRecordFrameOverhead));
  const uint32_t len = *r.ReadU32();
  const uint32_t crc = *r.ReadU32();
  if (len > kMaxRecordBytes) {
    result.parse = FrameParse::kCorrupt;
    return result;
  }
  if (data.size() - offset - kRecordFrameOverhead < len) {
    result.parse = FrameParse::kTorn;  // Payload extends past end-of-file.
    return result;
  }
  std::span<const uint8_t> payload = data.subspan(offset + kRecordFrameOverhead, len);
  if (Crc32(payload) != crc) {
    result.parse = FrameParse::kCorrupt;
    return result;
  }
  result.parse = FrameParse::kOk;
  result.payload = payload;
  result.next_offset = offset + kRecordFrameOverhead + len;
  return result;
}

SegmentWriter::~SegmentWriter() { Close(); }

Status SegmentWriter::Open(const std::string& path, uint64_t seq) {
  Close();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return IoError("cannot create segment", path);
  }
  path_ = path;
  seq_ = seq;
  bytes_ = 0;
  Bytes header = EncodeSegmentHeader(seq);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    return IoError("cannot write segment header", path_);
  }
  bytes_ = header.size();
  return Status::Ok();
}

Status SegmentWriter::Append(uint64_t lsn, std::span<const uint8_t> record) {
  if (file_ == nullptr) {
    return Status(StatusCode::kInternal, "segment writer is closed");
  }
  // len | crc | lsn on the stack; the CRC chains over the LSN bytes and then
  // the record, so the record itself is never copied.  A short second write
  // leaves a frame whose length points past end-of-file: a torn tail,
  // exactly as a short single write would.
  std::array<uint8_t, kRecordFrameOverhead + kLsnBytes> prefix;
  uint8_t* lsn_bytes = prefix.data() + kRecordFrameOverhead;
  PutLe(lsn_bytes, lsn, kLsnBytes);
  uint32_t crc = Crc32Update(Crc32Init(), std::span<const uint8_t>(lsn_bytes, kLsnBytes));
  crc = Crc32Final(Crc32Update(crc, record));
  PutLe(prefix.data(), kLsnBytes + record.size(), 4);
  PutLe(prefix.data() + 4, crc, 4);
  if (std::fwrite(prefix.data(), 1, prefix.size(), file_) != prefix.size() ||
      std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return IoError("cannot append to segment", path_);
  }
  bytes_ += prefix.size() + record.size();
  return Status::Ok();
}

Status SegmentWriter::Sync() {
  if (file_ == nullptr) {
    return Status(StatusCode::kInternal, "segment writer is closed");
  }
  if (std::fflush(file_) != 0) {
    return IoError("cannot flush segment", path_);
  }
  if (::fsync(::fileno(file_)) != 0) {
    return IoError("cannot fsync segment", path_);
  }
  return Status::Ok();
}

void SegmentWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status ReadSegmentFile(const std::string& path, Bytes& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoError("cannot open segment", path);
  }
  struct stat st;
  if (::fstat(::fileno(file), &st) != 0) {
    std::fclose(file);
    return IoError("cannot stat segment", path);
  }
  out.clear();  // Nothing of the previous file is copied on growth.
  out.resize(static_cast<size_t>(st.st_size));
  const size_t n = std::fread(out.data(), 1, out.size(), file);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return IoError("cannot read segment", path);
  }
  out.resize(n);  // A file that shrank under us reads as its shorter self.
  return Status::Ok();
}

Result<SegmentScan> ScanSegment(const std::string& path) {
  SegmentScan scan;
  Status status = ReadSegmentFile(path, scan.data);
  if (!status.ok()) {
    return status;
  }
  auto seq = DecodeSegmentHeader(scan.data);
  if (!seq.ok()) {
    return seq.status();
  }
  scan.seq = *seq;
  size_t offset = kSegmentHeaderBytes;
  for (;;) {
    FrameDecodeResult frame = DecodeRecordFrame(scan.data, offset);
    if (frame.parse == FrameParse::kOk && frame.payload.size() < kLsnBytes) {
      frame.parse = FrameParse::kCorrupt;  // CRC-valid, yet no writer made it.
    }
    if (frame.parse != FrameParse::kOk) {
      scan.tail = frame.parse;
      scan.clean = frame.parse == FrameParse::kEnd;
      break;
    }
    SegmentRecord record;
    record.lsn = GetLe(frame.payload.data(), kLsnBytes);
    record.offset = offset + kRecordFrameOverhead + kLsnBytes;
    record.size = static_cast<uint32_t>(frame.payload.size() - kLsnBytes);
    scan.records.push_back(record);
    offset = frame.next_offset;
  }
  scan.valid_bytes = offset;
  scan.dropped_bytes = scan.data.size() - offset;
  return scan;
}

}  // namespace publishing
