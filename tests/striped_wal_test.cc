// Striped-WAL recovery matrix: per-stripe torn tails, rebuild-from-disk with
// the merged (LSN) read order and its memory bound, crash mid-concurrent-
// compaction, refusal of the retired version-1 layout, and adaptive
// group-commit bounds.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/storage_journal.h"
#include "src/storage/log_segment.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"

namespace publishing {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("pub_striped_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Bytes MakePayload(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i);
  }
  return out;
}

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

// Which stripe (of `stripes`) a process's records land on.
size_t StripeOf(const ProcessId& pid, size_t stripes) {
  const Bytes record = StorageJournal::EncodeSetHome(pid, NodeId{1});
  return static_cast<size_t>(StorageJournal::RouteKey(record) % stripes);
}

// The equivalence that matters: the merged replay order (arrival indices,
// read sequence numbers, packets) and the global counters must match a
// database that never went through the WAL.
void ExpectEquivalent(const StableStorage& got, const StableStorage& want) {
  EXPECT_EQ(got.restart_number(), want.restart_number());
  EXPECT_EQ(got.messages_stored(), want.messages_stored());
  EXPECT_EQ(got.TotalBytes(), want.TotalBytes());
  EXPECT_EQ(got.PeakBytes(), want.PeakBytes());
  ASSERT_EQ(got.AllProcesses(), want.AllProcesses());
  for (const ProcessId& pid : want.AllProcesses()) {
    SCOPED_TRACE(ToString(pid));
    auto got_replay = got.ReplayList(pid);
    auto want_replay = want.ReplayList(pid);
    ASSERT_EQ(got_replay.size(), want_replay.size());
    for (size_t i = 0; i < want_replay.size(); ++i) {
      EXPECT_EQ(got_replay[i].id, want_replay[i].id);
      EXPECT_EQ(got_replay[i].arrival, want_replay[i].arrival);
      EXPECT_EQ(got_replay[i].read, want_replay[i].read);
      EXPECT_EQ(got_replay[i].read_seq, want_replay[i].read_seq);
      EXPECT_EQ(got_replay[i].packet, want_replay[i].packet);
    }
    EXPECT_EQ(got.LastSent(pid), want.LastSent(pid));
  }
}

// History touching several processes so records spread across stripes.
void ApplyHistory(StableStorage& db) {
  const ProcessId sender = Pid(9, 900);
  db.RecordCreation(sender, "pinger", {}, NodeId{9});
  for (uint32_t p = 0; p < 6; ++p) {
    const ProcessId pid = Pid(1 + p % 3, 100 + p);
    db.RecordCreation(pid, "echo", {}, NodeId{1 + p % 3});
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      db.AppendMessage(pid, Mid(sender, p * 100 + seq),
                       MakePayload(48, static_cast<uint8_t>(p * 16 + seq)));
      db.RecordSent(sender, p * 100 + seq);
    }
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      db.RecordRead(pid, Mid(sender, p * 100 + seq));
    }
    db.StoreCheckpoint(pid, MakePayload(96, static_cast<uint8_t>(p)), /*reads_done=*/2);
  }
  db.IncrementRestartNumber();
}

// Writes ApplyHistory through a Wal with `stripes` stripes and rebuilds it.
StableStorage RebuildHistory(const std::string& name, size_t stripes,
                             RecoveryReport* report) {
  WalOptions options;
  options.dir = TestDir(name);
  options.stripes = stripes;
  options.group_commit_records = 4;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  if (!wal.ok()) {
    return StableStorage();
  }
  EXPECT_EQ(wal->get()->stripes(), stripes);
  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(durable);
  EXPECT_TRUE(durable.Flush().ok());

  // The history must actually have spread over several stripes, or the test
  // proves nothing about merging.
  size_t populated = 0;
  for (size_t i = 0; i < stripes; ++i) {
    populated += wal->get()->stripe_stats(i).records_appended > 0 ? 1 : 0;
  }
  EXPECT_GE(populated, std::min<size_t>(stripes, 2));
  wal->reset();

  auto recovered = RecoverStableStorage(options.dir, report);
  EXPECT_TRUE(recovered.ok());
  return recovered.ok() ? std::move(*recovered) : StableStorage();
}

TEST(StripedWal, RebuildFromFourStripesMatchesOneStripe) {
  StableStorage reference;
  ApplyHistory(reference);

  RecoveryReport one_report;
  const StableStorage one = RebuildHistory("rebuild_s1", 1, &one_report);
  EXPECT_EQ(one_report.stripes_scanned, 1u);
  EXPECT_EQ(one_report.records_skipped, 0u);
  ExpectEquivalent(one, reference);

  RecoveryReport four_report;
  const StableStorage four = RebuildHistory("rebuild_s4", 4, &four_report);
  EXPECT_EQ(four_report.stripes_scanned, 4u);
  EXPECT_EQ(four_report.records_skipped, 0u);
  EXPECT_EQ(four_report.torn_segments, 0u);
  EXPECT_EQ(four_report.records_applied, one_report.records_applied);
  ExpectEquivalent(four, one);
}

TEST(StripedWal, TornTailIsConfinedToOneStripe) {
  const size_t kStripes = 4;
  // Two processes on different stripes: tearing one stripe's tail must not
  // touch the other's log.
  const ProcessId sender = Pid(9, 900);
  const ProcessId victim = Pid(1, 100);
  ProcessId witness = Pid(2, 200);
  for (uint32_t local = 200; StripeOf(witness, kStripes) == StripeOf(victim, kStripes);
       ++local) {
    witness = Pid(2, local);
  }

  WalOptions options;
  options.dir = TestDir("torn");
  options.stripes = kStripes;
  options.group_commit_records = 1;  // Every append durable on its own.
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage durable;
  durable.AttachBackend(wal->get());
  durable.RecordCreation(victim, "echo", {}, NodeId{1});
  durable.RecordCreation(witness, "echo", {}, NodeId{2});
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    durable.AppendMessage(victim, Mid(sender, seq), MakePayload(20, 0x10));
  }
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    durable.AppendMessage(witness, Mid(sender, seq), MakePayload(20, 0x20));
  }
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();

  // Tear the victim stripe's last record mid-frame.
  auto paths = ListSegmentPaths(StripePath(options.dir, StripeOf(victim, kStripes)));
  ASSERT_TRUE(paths.ok());
  ASSERT_FALSE(paths->empty());
  fs::resize_file(paths->back(), fs::file_size(paths->back()) - 10);

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.dropped_tail_bytes, 0u);
  // The victim lost exactly its unacked tail append; the witness lost
  // nothing — the loss is a per-process suffix, not a mid-stream hole.
  EXPECT_EQ(recovered->ReplayList(victim).size(), 2u);
  EXPECT_EQ(recovered->ReplayList(witness).size(), 3u);
}

// A compaction whose slices interleave with live appends across many segment
// rolls: the rebuild must still equal the reference, and it must never hold
// more than one segment file per stripe in memory.
TEST(StripedWal, ConcurrentCompactionPreservesMergedReplay) {
  for (size_t stripes : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    WalOptions options;
    options.dir = TestDir("concurrent_compact_s" + std::to_string(stripes));
    options.stripes = stripes;
    options.segment_bytes = 512;  // A few records per segment: many rolls.
    options.group_commit_records = 2;
    options.compactor.slice_records = 4;  // Many pumps per rewrite.
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());

    StableStorage reference;
    StableStorage durable;
    durable.AttachBackend(wal->get());
    ApplyHistory(reference);
    ApplyHistory(durable);

    ASSERT_TRUE(wal->get()->StartCompaction());
    EXPECT_TRUE(wal->get()->CompactionInProgress());
    const uint64_t segments_before = wal->get()->stats().segments_created;
    // Publishes to every process keep landing while the rewrite is in
    // flight, so block and live records share the post-capture segments.
    const ProcessId sender = Pid(9, 900);
    uint64_t now = 1000;
    for (uint64_t seq = 90; seq <= 129; ++seq) {
      const uint32_t p = static_cast<uint32_t>(seq % 6);
      const ProcessId pid = Pid(1 + p % 3, 100 + p);
      reference.AppendMessage(pid, Mid(sender, 1000 + seq), MakePayload(32, 0x30));
      durable.AppendMessage(pid, Mid(sender, 1000 + seq), MakePayload(32, 0x30));
      wal->get()->Tick(now += 1000);
    }
    while (wal->get()->CompactionInProgress()) {
      wal->get()->Tick(now += 1000);
    }
    EXPECT_EQ(wal->get()->stats().compactions, 1u);
    EXPECT_GT(wal->get()->stats().compaction_segments_deleted, 0u);
    EXPECT_GE(wal->get()->stats().segments_created - segments_before, 2 * stripes)
        << "the rewrite and the live appends must roll segments";
    ASSERT_TRUE(durable.Flush().ok());
    wal->reset();

    size_t largest_segment = 0;
    size_t log_bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(options.dir)) {
      if (entry.is_regular_file()) {
        largest_segment = std::max<size_t>(largest_segment, entry.file_size());
        log_bytes += entry.file_size();
      }
    }
    RecoveryReport report;
    auto recovered = RecoverStableStorage(options.dir, &report);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(report.snapshots_applied, 1u);
    EXPECT_EQ(report.dangling_snapshots, 0u);
    EXPECT_GT(report.max_segment_bytes_held, 0u);
    EXPECT_LE(report.max_segment_bytes_held, stripes * largest_segment)
        << "at most one loaded segment per stripe";
    EXPECT_LT(report.max_segment_bytes_held, log_bytes) << "never the whole log";
    ExpectEquivalent(*recovered, reference);
  }
}

// A checkpoint-triggered compaction drains the rewrite in one go: however
// many slices the live image spans, it costs one barrier sync per stripe
// (plus the checkpoint's own sync), not one sync per slice.
TEST(StripedWal, CheckpointCompactionSyncsOncePerStripe) {
  for (size_t stripes : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("stripes=" + std::to_string(stripes));
    WalOptions options;
    options.dir = TestDir("checkpoint_compact_s" + std::to_string(stripes));
    options.stripes = stripes;
    options.group_commit_records = 4;
    options.compactor.min_bytes = 1;
    options.compactor.slice_records = 2;  // 12 process images: 6+ slices.
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());

    StableStorage reference;
    StableStorage durable;
    durable.AttachBackend(wal->get());
    const ProcessId sender = Pid(9, 900);
    auto drive = [&sender](StableStorage& db) {
      for (uint32_t p = 0; p < 12; ++p) {
        const ProcessId pid = Pid(1 + p % 3, 100 + p);
        db.RecordCreation(pid, "echo", {}, NodeId{1 + p % 3});
        for (uint64_t seq = 1; seq <= 4; ++seq) {
          db.AppendMessage(pid, Mid(sender, p * 100 + seq), MakePayload(48, 0x40));
        }
      }
    };
    drive(reference);
    drive(durable);
    ASSERT_TRUE(durable.Flush().ok());
    ASSERT_EQ(wal->get()->stats().compactions, 0u);

    const uint64_t syncs_before = wal->get()->stats().syncs;
    for (StableStorage* db : {&reference, &durable}) {
      db->StoreCheckpoint(Pid(1, 100), MakePayload(64, 0x11), /*reads_done=*/0);
    }
    EXPECT_EQ(wal->get()->stats().compactions, 1u);
    EXPECT_FALSE(wal->get()->CompactionInProgress());
    EXPECT_LE(wal->get()->stats().syncs - syncs_before, stripes + 1);
    wal->reset();

    RecoveryReport report;
    auto recovered = RecoverStableStorage(options.dir, &report);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(report.snapshots_applied, 1u);
    ExpectEquivalent(*recovered, reference);
  }
}

TEST(StripedWal, CrashMidConcurrentCompactionRecoversFromOldSegments) {
  WalOptions options;
  options.dir = TestDir("crash_compact");
  options.stripes = 2;
  options.group_commit_records = 2;
  options.compactor.slice_records = 4;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(reference);
  ApplyHistory(durable);
  ASSERT_TRUE(durable.Flush().ok());

  ASSERT_TRUE(wal->get()->StartCompaction());
  wal->get()->Tick(1000);  // One slice only: the rewrite is incomplete.
  ASSERT_TRUE(wal->get()->CompactionInProgress());
  wal->reset();  // "Crash": the in-flight block is abandoned mid-rewrite.

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  // The incomplete block is a dangling snapshot; the pre-capture segments
  // are still on disk and carry the authoritative image.
  EXPECT_EQ(report.dangling_snapshots, 1u);
  EXPECT_EQ(report.snapshots_applied, 0u);
  EXPECT_GT(report.records_skipped, 0u);
  ExpectEquivalent(*recovered, reference);
}

// Writes a version-1 segment by hand: the retired format whose records carry
// no LSN.  The header is the current one with its version field set to 1.
void WriteVersion1Segment(const std::string& path) {
  Bytes data = EncodeSegmentHeader(1);
  data[kSegmentMagicBytes] = 1;
  AppendRecordFrame(data, StorageJournal::EncodeSetHome(Pid(1, 100), NodeId{1}));
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), file), data.size());
  std::fclose(file);
}

// A leftover directory of the retired single-chain layout (top-level
// segments) or a version-1 segment inside a stripe must be refused by both
// the WAL and the rebuild, never silently dropped.
TEST(StripedWal, Version1SegmentsAreRefused) {
  {
    SCOPED_TRACE("top-level single-chain segment");
    const std::string dir = TestDir("v1_top_level");
    WriteVersion1Segment(SegmentPath(dir, 1));
    auto recovered = RecoverStableStorage(dir);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    ASSERT_FALSE(wal.ok());
    EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fs::exists(StripePath(dir, 0))) << "refused before touching the directory";
  }
  {
    SCOPED_TRACE("version-1 segment inside a stripe");
    const std::string dir = TestDir("v1_in_stripe");
    fs::create_directories(StripePath(dir, 0));
    const std::string path = SegmentPath(StripePath(dir, 0), 1);
    WriteVersion1Segment(path);
    auto scan = ScanSegment(path);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
    auto recovered = RecoverStableStorage(dir);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    ASSERT_FALSE(wal.ok());
    EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdaptiveCommit, BatchLimitTracksArrivalRateWithinBounds) {
  WalOptions options;
  options.dir = TestDir("adaptive");
  options.group_commit_records = 8;  // Initial limit.
  options.adaptive.enabled = true;
  options.adaptive.min_records = 4;
  options.adaptive.max_records = 16;
  options.adaptive.ack_latency_target = 1000;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  const Bytes record = StorageJournal::EncodeRestartNumber(1);
  // A burst that fills windows: the limit doubles to the cap and no further.
  uint64_t now = 100;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 16u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 16u) << "clamped at max_records";
  EXPECT_EQ(wal->get()->stats().syncs, 2u);

  // Sparse arrivals: windows close on the ack-latency target and the limit
  // walks back down, clamped at min_records.
  for (int i = 0; i < 4; ++i) {
    now += 10'000;
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
    wal->get()->Tick(now + 2'000);  // Past the 1 us target: forced sync.
    EXPECT_EQ(wal->get()->PendingRecords(), 0u);
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 4u) << "clamped at min_records";

  // An idle stretch with nothing staged also decays a deepened limit.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_GT(wal->get()->stripe_batch_limit(0), 4u);
  for (int i = 0; i < 4; ++i) {
    now += 10'000;
    wal->get()->Tick(now);
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 4u);
}

TEST(AdaptiveCommit, AckLatencyTargetBoundsStagingDelayOnAppend) {
  WalOptions options;
  options.dir = TestDir("adaptive_ack");
  options.group_commit_records = 64;  // Count trigger far away.
  options.adaptive.enabled = true;
  options.adaptive.min_records = 4;
  options.adaptive.max_records = 64;
  options.adaptive.ack_latency_target = 5'000;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  const Bytes record = StorageJournal::EncodeRestartNumber(1);
  ASSERT_TRUE(wal->get()->Append(record, 1'000).ok());
  ASSERT_TRUE(wal->get()->Append(record, 2'000).ok());
  EXPECT_EQ(wal->get()->stats().syncs, 0u) << "window still inside the target";
  // This arrival finds the window 5 us old: it must close it rather than
  // stage a third record behind an over-age batch.
  ASSERT_TRUE(wal->get()->Append(record, 6'000).ok());
  EXPECT_EQ(wal->get()->stats().syncs, 1u);
  EXPECT_EQ(wal->get()->PendingRecords(), 0u);
}

}  // namespace
}  // namespace publishing
