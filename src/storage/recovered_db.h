// Startup scan: rebuild the recorder database from WAL segments (§4.5,
// "it is possible to rebuild the data base from the disk").
//
// The WAL directory holds one segment chain per stripe ("stripe-<k>/"); the
// records of all chains merge by LSN back into the one order the recorder
// journaled them in, so the rebuilt database is bit-identical to the live
// one whatever the stripe count.  The rebuild runs in two passes so that it
// never holds the whole log:
//   1. scan each stripe's segments one at a time, keeping only a small key
//      per record (LSN, segment, offset, size, op, snapshot-end count);
//   2. sort the keys by LSN, validate snapshot blocks on them, then apply
//      the records in LSN order straight out of the loaded segment file,
//      holding at most one loaded segment per stripe.
//
// Three kinds of damage are tolerated, never fatal:
//   * torn tail — a crash mid-append leaves a partial frame at the end of
//     a stripe's then-active segment; only the tail is dropped
//     (log_segment.h).  Each stripe tears independently, and because records
//     route by process hash the loss is a per-process suffix,
//   * corrupt frame — CRC mismatch; the segment is cut at the bad frame,
//   * dangling snapshot — a crash mid-compaction leaves an incomplete
//     snapshot block; the whole block is discarded (the pre-compaction
//     segments it would have replaced are only deleted after the block is
//     durable, so they are still here).  A block is complete when its
//     reserved LSN range [end-n+1, end] is fully present and starts with
//     kSnapshotBegin.
// A directory this build cannot read — top-level segments, or a segment of
// another format version — is an error, not damage: its records would
// otherwise vanish without a trace.

#ifndef SRC_STORAGE_RECOVERED_DB_H_
#define SRC_STORAGE_RECOVERED_DB_H_

#include <string>

#include "src/core/stable_storage.h"

namespace publishing {

struct RecoveryReport {
  uint64_t segments_scanned = 0;
  uint64_t stripes_scanned = 0;
  uint64_t records_applied = 0;
  uint64_t records_skipped = 0;     // Undecodable or inside a dangling snapshot.
  uint64_t torn_segments = 0;       // Segments cut short (torn tail or bad CRC).
  uint64_t dropped_tail_bytes = 0;
  uint64_t dangling_snapshots = 0;  // Crash-mid-compaction artifacts ignored.
  uint64_t snapshots_applied = 0;
  // The most segment-file bytes held in memory at once during the rebuild.
  uint64_t max_segment_bytes_held = 0;
};

// Scans every segment in `dir` and replays the journal into a fresh
// StableStorage.  The result has no backend attached; the caller decides
// whether to re-attach one (typically a Wal opened on the same directory,
// which appends after the highest surviving sequence).  An empty or missing
// directory yields an empty database, not an error; a directory in a layout
// this build cannot read is kInvalidArgument.
Result<StableStorage> RecoverStableStorage(const std::string& dir,
                                           RecoveryReport* report = nullptr);

}  // namespace publishing

#endif  // SRC_STORAGE_RECOVERED_DB_H_
