#include "src/storage/recovered_db.h"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "src/common/logging.h"
#include "src/core/storage_journal.h"
#include "src/storage/log_segment.h"
#include "src/storage/wal.h"

namespace publishing {

namespace {

bool IsSnapshotOp(JournalOp op) {
  return op == JournalOp::kSnapshotBegin || op == JournalOp::kSnapshotProcess ||
         op == JournalOp::kSnapshotNode || op == JournalOp::kSnapshotCounters ||
         op == JournalOp::kSnapshotEnd;
}

// What pass 1 keeps of a record: enough to order it, validate snapshot
// blocks and find it again, but not its bytes.
struct RecordKey {
  uint64_t lsn = 0;
  size_t offset = 0;            // Of the journal record in its segment file.
  uint32_t segment = 0;         // Index into the scanned segments.
  uint32_t size = 0;
  uint32_t snapshot_count = 0;  // kSnapshotEnd only: the block's length.
  JournalOp op = JournalOp::kInvalid;
  bool in_complete_block = false;
};

struct ScannedSegment {
  std::string path;
  size_t stripe = 0;
};

}  // namespace

Result<StableStorage> RecoverStableStorage(const std::string& dir, RecoveryReport* report) {
  RecoveryReport local;
  StableStorage db;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    if (report != nullptr) {
      *report = local;
    }
    return db;  // Nothing on disk: a brand-new recorder.
  }
  Status layout = CheckNoTopLevelSegments(dir);
  if (!layout.ok()) {
    return layout;
  }
  auto stripe_dirs = ListStripePaths(dir);
  if (!stripe_dirs.ok()) {
    return stripe_dirs.status();
  }

  // Pass 1: scan one segment at a time and keep a key per record.
  std::vector<ScannedSegment> segments;
  std::vector<RecordKey> keys;
  for (size_t s = 0; s < stripe_dirs->size(); ++s) {
    ++local.stripes_scanned;
    auto paths = ListSegmentPaths((*stripe_dirs)[s]);
    if (!paths.ok()) {
      return paths.status();
    }
    for (const std::string& path : *paths) {
      auto scan = ScanSegment(path);
      if (!scan.ok()) {
        if (scan.status().code() == StatusCode::kInvalidArgument) {
          return Status(StatusCode::kInvalidArgument, path + ": " + scan.status().message());
        }
        PUB_LOG_ERROR("recovery: skipping unreadable segment %s: %s", path.c_str(),
                      scan.status().ToString().c_str());
        ++local.torn_segments;
        continue;
      }
      ++local.segments_scanned;
      local.max_segment_bytes_held =
          std::max<uint64_t>(local.max_segment_bytes_held, scan->data.size());
      if (!scan->clean) {
        ++local.torn_segments;
        local.dropped_tail_bytes += scan->dropped_bytes;
      }
      const auto segment = static_cast<uint32_t>(segments.size());
      segments.push_back({path, s});
      for (size_t i = 0; i < scan->records.size(); ++i) {
        const std::span<const uint8_t> record = scan->record(i);
        RecordKey key;
        key.lsn = scan->records[i].lsn;
        key.offset = scan->records[i].offset;
        key.segment = segment;
        key.size = scan->records[i].size;
        key.op = StorageJournal::OpOf(record);
        if (key.op == JournalOp::kSnapshotEnd) {
          auto count = StorageJournal::SnapshotEndCount(record);
          if (count.ok() && *count <= std::numeric_limits<uint32_t>::max()) {
            key.snapshot_count = static_cast<uint32_t>(*count);
          }
        }
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const RecordKey& a, const RecordKey& b) { return a.lsn < b.lsn; });

  // Snapshot-block validation: compaction reserved the block
  // [end_lsn - n + 1, end_lsn] up front, so the block is trustworthy exactly
  // when that whole range survived — every LSN present (they are unique and
  // sorted, so presence is index arithmetic) and the first record is the
  // begin marker.  Anything less is a crash mid-rewrite; its records are
  // dropped and the pre-capture segments (still on disk) carry the data.
  for (size_t e = 0; e < keys.size(); ++e) {
    const uint32_t count = keys[e].snapshot_count;
    if (keys[e].op != JournalOp::kSnapshotEnd || count == 0 || count > e + 1) {
      continue;
    }
    const size_t b = e + 1 - count;
    if (keys[e].lsn - keys[b].lsn != count - 1 || keys[b].op != JournalOp::kSnapshotBegin) {
      continue;
    }
    for (size_t i = b; i <= e; ++i) {
      keys[i].in_complete_block = true;
    }
  }

  // Pass 2: apply in LSN order, each record straight from its stripe's
  // loaded segment.  Compaction seals every stripe before it reserves its
  // block, so only post-capture segments interleave block and live records,
  // and a segment is loaded at most twice.
  constexpr uint32_t kNoSegment = std::numeric_limits<uint32_t>::max();
  std::vector<Bytes> loaded(stripe_dirs->size());
  std::vector<uint32_t> loaded_segment(stripe_dirs->size(), kNoSegment);
  for (const RecordKey& key : keys) {
    if (IsSnapshotOp(key.op) && !key.in_complete_block) {
      ++local.records_skipped;
      if (key.op == JournalOp::kSnapshotBegin) {
        ++local.dangling_snapshots;
      }
      continue;
    }
    const ScannedSegment& segment = segments[key.segment];
    Bytes& data = loaded[segment.stripe];
    if (loaded_segment[segment.stripe] != key.segment) {
      loaded_segment[segment.stripe] = key.segment;
      Status status = ReadSegmentFile(segment.path, data);
      if (!status.ok()) {
        PUB_LOG_ERROR("recovery: cannot reload segment %s: %s", segment.path.c_str(),
                      status.ToString().c_str());
        data.clear();
      }
      uint64_t held = 0;
      for (const Bytes& bytes : loaded) {
        held += bytes.size();
      }
      local.max_segment_bytes_held = std::max(local.max_segment_bytes_held, held);
    }
    if (key.offset + key.size > data.size()) {
      ++local.records_skipped;
      continue;
    }
    Status status =
        StorageJournal::Apply(db, std::span<const uint8_t>(data).subspan(key.offset, key.size));
    if (!status.ok()) {
      PUB_LOG_ERROR("recovery: skipping merged record lsn=%llu: %s",
                    static_cast<unsigned long long>(key.lsn), status.ToString().c_str());
      ++local.records_skipped;
      continue;
    }
    ++local.records_applied;
    if (key.op == JournalOp::kSnapshotEnd) {
      ++local.snapshots_applied;
    }
  }

  if (report != nullptr) {
    *report = local;
  }
  return db;
}

}  // namespace publishing
