// Unit tests for the recorder's stable storage (§3.3.1, §4.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "src/common/rng.h"
#include "src/core/stable_storage.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"

namespace publishing {
namespace {

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

TEST(StableStorage, CreationAndDestructionLifecycle) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  EXPECT_FALSE(storage.Knows(pid));
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  ASSERT_TRUE(storage.Knows(pid));
  auto info = storage.Info(pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->program, "prog");
  EXPECT_EQ(info->home_node, NodeId{1});
  EXPECT_FALSE(info->destroyed);

  storage.RecordDestruction(pid);
  info = storage.Info(pid);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->destroyed);
  EXPECT_TRUE(storage.AllProcesses().empty());
}

TEST(StableStorage, MessagesAppendAndReplayInArrivalOrder) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 5; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  auto replay = storage.ReplayList(pid);
  ASSERT_EQ(replay.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replay[i].id.sequence, i + 1);
  }
}

TEST(StableStorage, ReadOrderOverridesArrivalOrderInReplay) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 4; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  // The process read 3 and 4 (channel selection) but never 1 and 2.
  storage.RecordRead(pid, Mid(sender, 3));
  storage.RecordRead(pid, Mid(sender, 4));

  auto replay = storage.ReplayList(pid);
  ASSERT_EQ(replay.size(), 4u);
  EXPECT_EQ(replay[0].id.sequence, 3u);  // Read entries first, in read order.
  EXPECT_EQ(replay[1].id.sequence, 4u);
  EXPECT_EQ(replay[2].id.sequence, 1u);  // Then unread, in arrival order.
  EXPECT_EQ(replay[3].id.sequence, 2u);
}

TEST(StableStorage, DuplicateAppendsAreIgnored) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});  // Retransmission.
  EXPECT_EQ(storage.ReplayList(pid).size(), 1u);
}

TEST(StableStorage, ReplayedReReadsDoNotCorruptReadOrder) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 2), Bytes{2});
  storage.RecordRead(pid, Mid(Pid(1, 3), 1));
  storage.RecordRead(pid, Mid(Pid(1, 3), 2));
  // During recovery the process re-reads both; order must not change.
  storage.RecordRead(pid, Mid(Pid(1, 3), 2));
  storage.RecordRead(pid, Mid(Pid(1, 3), 1));
  auto replay = storage.ReplayList(pid);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].id.sequence, 1u);
  EXPECT_EQ(replay[1].id.sequence, 2u);
}

TEST(StableStorage, CheckpointDiscardsSubsumedMessagesOnly) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 6; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  // Process has read 1..4; checkpoint captured after 3 reads (the 4th read's
  // notice raced ahead of the checkpoint message).
  for (uint64_t i = 1; i <= 4; ++i) {
    storage.RecordRead(pid, Mid(sender, i));
  }
  storage.StoreCheckpoint(pid, Bytes(100, 0xCC), /*reads_done=*/3);

  auto replay = storage.ReplayList(pid);
  ASSERT_EQ(replay.size(), 3u) << "messages 1..3 subsumed; 4 (read), 5, 6 retained";
  EXPECT_EQ(replay[0].id.sequence, 4u);
  EXPECT_EQ(replay[1].id.sequence, 5u);
  EXPECT_EQ(replay[2].id.sequence, 6u);

  auto checkpoint = storage.LoadCheckpoint(pid);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->size(), 100u);
}

TEST(StableStorage, LastSentWatermarkIsMonotonic) {
  StableStorage storage;
  ProcessId sender = Pid(2, 9);
  storage.RecordSent(sender, 5);
  storage.RecordSent(sender, 3);  // Out-of-order observation (retransmit).
  storage.RecordSent(sender, 8);
  EXPECT_EQ(storage.LastSent(sender), 8u);
  EXPECT_EQ(storage.LastSent(Pid(9, 9)), 0u);
}

TEST(StableStorage, ProcessesOnNodeFiltersCorrectly) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordCreation(Pid(1, 3), "b", {}, NodeId{2});  // Created on 1, lives on 2.
  storage.RecordCreation(Pid(2, 2), "c", {}, NodeId{2});
  storage.RecordDestruction(Pid(2, 2));
  auto on_node2 = storage.ProcessesOnNode(NodeId{2});
  ASSERT_EQ(on_node2.size(), 1u);
  EXPECT_EQ(on_node2[0], Pid(1, 3));
}

TEST(StableStorage, SetHomeNodeMovesProcess) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.SetHomeNode(Pid(1, 2), NodeId{3});
  EXPECT_TRUE(storage.ProcessesOnNode(NodeId{1}).empty());
  EXPECT_EQ(storage.ProcessesOnNode(NodeId{3}).size(), 1u);
}

TEST(StableStorage, LocalIdHighWaterTracksCreationOrigin) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordCreation(Pid(1, 7), "b", {}, NodeId{1});
  storage.RecordCreation(Pid(2, 9), "c", {}, NodeId{2});
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{1}), 7u);
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{2}), 9u);
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{3}), 0u);
}

TEST(StableStorage, PageAccountingRoundsPerProcess) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 1), Bytes(100, 1));
  EXPECT_EQ(storage.TotalPages(), 1u) << "100 bytes still occupy one 4 KB page";
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 2), Bytes(5000, 1));
  EXPECT_EQ(storage.TotalPages(), 2u);
  EXPECT_EQ(storage.TotalBytes(), 5100u);
  EXPECT_GE(storage.PeakBytes(), 5100u);
}

TEST(StableStorage, RestartNumberMonotonic) {
  StableStorage storage;
  EXPECT_EQ(storage.restart_number(), 0u);
  EXPECT_EQ(storage.IncrementRestartNumber(), 1u);
  EXPECT_EQ(storage.IncrementRestartNumber(), 2u);
}

TEST(StableStorage, DestroyedProcessAcceptsNoMoreMessages) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordDestruction(Pid(1, 2));
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 1), Bytes{1});
  EXPECT_TRUE(storage.ReplayList(Pid(1, 2)).empty());
}

// Σ retained bytes over the processes the store reports, the quantity
// TotalBytes() keeps as a running total.
size_t SumOfInfoBytes(const StableStorage& storage) {
  size_t sum = 0;
  for (const ProcessId& pid : storage.AllProcesses()) {
    auto info = storage.Info(pid);
    EXPECT_TRUE(info.ok());
    sum += info->log_bytes + info->checkpoint_bytes;
  }
  return sum;
}

TEST(StableStorage, RunningByteTotalMatchesPerProcessSumUnderRandomOps) {
  namespace fs = std::filesystem;
  WalOptions options;
  options.dir = (fs::path(testing::TempDir()) / "pub_stable_storage_accounting").string();
  fs::remove_all(options.dir);
  options.group_commit_records = 8;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  constexpr size_t kProcesses = 200;
  constexpr int kOps = 4000;
  StableStorage db;
  db.AttachBackend(wal->get());
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < kProcesses; ++i) {
    pids.push_back(Pid(1 + i % 4, 100 + i));
    db.RecordCreation(pids.back(), "prog", {}, NodeId{1 + i % 4});
  }
  const ProcessId sender = Pid(7, 1);
  // Exported blobs awaiting import.  A blob whose process was not dropped
  // replaces the live entry when it is imported.
  std::map<ProcessId, Bytes> exported;
  Rng rng(20261018);
  size_t running_max = 0;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(op);
    const ProcessId& pid = pids[rng.NextBelow(kProcesses)];
    // A small id space per process makes duplicate appends (retransmits)
    // and reads of already-compacted ids common.
    const MessageId id = Mid(sender, pid.local * 1000 + rng.NextBelow(48));
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 45) {
      // Lands in the annex when `pid` has moved away.
      db.AppendMessage(pid, id, Bytes(1 + rng.NextBelow(300), static_cast<uint8_t>(op)));
    } else if (kind < 65) {
      db.RecordRead(pid, id);
    } else if (kind < 77) {
      db.StoreCheckpoint(pid, Bytes(rng.NextBelow(512), 0xC5), rng.NextBelow(24));
    } else if (kind < 80) {
      db.RecordDestruction(pid);
    } else if (kind < 90) {
      auto blob = db.ExportEntry(pid);
      if (blob.ok()) {
        exported[pid] = *blob;
        if (kind < 87) {
          db.DropEntry(pid, NodeId{9});
        }
      }
    } else if (!exported.empty()) {
      auto it = exported.begin();
      std::advance(it, rng.NextBelow(exported.size()));
      const NodeId home{static_cast<uint32_t>(1 + rng.NextBelow(4))};
      ASSERT_TRUE(db.ImportEntry(it->second, home).ok());
      exported.erase(it);
    }
    if (op == kOps / 2) {
      // A snapshot mid-run: the rebuild below then starts from snapshot
      // records and replays the second half incrementally.
      ASSERT_TRUE(wal->get()->CompactNow());
    }
    const size_t sum = SumOfInfoBytes(db);
    running_max = std::max(running_max, sum);
    ASSERT_EQ(db.TotalBytes(), sum);
    ASSERT_EQ(db.PeakBytes(), running_max);
  }
  EXPECT_GT(db.straggler_appends(), 0u) << "the sequence must reach the annex";
  ASSERT_TRUE(db.Flush().ok());
  wal->reset();

  auto rebuilt = RecoverStableStorage(options.dir);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->TotalBytes(), db.TotalBytes());
  EXPECT_EQ(rebuilt->PeakBytes(), db.PeakBytes());
  EXPECT_EQ(SumOfInfoBytes(*rebuilt), db.TotalBytes());
  fs::remove_all(options.dir);
}

}  // namespace
}  // namespace publishing
