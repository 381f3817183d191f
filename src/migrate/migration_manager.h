// Live process migration across a DEMOS/MP internetwork (DESIGN.md §14).
//
// Publishing makes migration a fast path of recovery (§3.3.3 already moves a
// process to a spare node; the paper's MOVELINK machinery re-points links
// transparently): a process's complete database entry — checkpoint, retained
// log with read order, watermarks — lives with its home recorder, so moving
// a *live* process is "freeze, checkpoint, recover elsewhere":
//
//   1. freeze:     kMigrateFreeze stops the process's dispatch at a virtual-
//                  time barrier; the kernel emits a barrier checkpoint to its
//                  recorder and acks with the reads-done count at the barrier;
//   2. barrier:    the manager polls the source storage until the barrier
//                  checkpoint has landed (checkpoint_reads >= the acked
//                  reads_done) — the checkpoint travels to the source
//                  segment's recorder while the ack travels here, different
//                  destinations, so their order is not guaranteed;
//   3. hand-off:   at one virtual instant the database entry moves between
//                  recorders (ExportEntry / ImportEntry / DropEntry) for a
//                  cross-segment move, the SegmentMap's process-home overlay
//                  and the name service flip to the destination, and
//                  kMigrateEvict discards the frozen source record, leaving a
//                  forwarding pointer for straggler packets;
//   4. replay:     the destination segment's RecoveryManager recreates the
//                  process from the barrier checkpoint and streams the
//                  retained (unread) log as pipelined replay bursts
//                  (DESIGN.md §11) — the same machinery as crash recovery,
//                  pointed at a healthy node;
//   5. done:       the recovery listener fires; the manager emits the
//                  kMigrated lifecycle stage, which closes the oracle's
//                  migration_atomicity move window.
//
// Exactly-once across the move follows from the same arguments as recovery:
// the barrier checkpoint subsumes every read entry (StoreCheckpoint discards
// them), so the destination replays only unread messages; replayed ids and
// the pending-live hold filter duplicates on the destination kernel; and the
// source's forwarding pointer re-sends stragglers instead of reading them.
// The migration_atomicity oracle monitor checks all of it online.
//
// One manager supervises the whole internetwork.  It lives on segment 0's
// recording node (local id 3, beside the segment's recovery manager at 2),
// receives its acks through that recorder's packet-handler chain, and
// reaches every segment's storage and recovery manager directly through the
// Internet — the supervisor is infrastructure, like the recorders themselves.

#ifndef SRC_MIGRATE_MIGRATION_MANAGER_H_
#define SRC_MIGRATE_MIGRATION_MANAGER_H_

#include <functional>
#include <map>
#include <string>

#include "src/internet/internet.h"

namespace publishing {

struct MigrationManagerOptions {
  // Barrier poll: how often to re-check that the freeze checkpoint landed in
  // the source storage, and how long before abandoning the move (source
  // crashed with the checkpoint in flight).
  SimDuration checkpoint_poll_interval = MillisF(2);
  SimDuration checkpoint_poll_deadline = Seconds(5);
  // Abandon a move whose freeze ack never arrives (source node died).
  SimDuration freeze_ack_timeout = Seconds(5);
};

struct MigrationStats {
  uint64_t moves_started = 0;
  uint64_t moves_completed = 0;
  uint64_t moves_aborted = 0;
  uint64_t cross_segment_moves = 0;  // Completed moves that changed segment.
  uint64_t freeze_nacks = 0;         // Kernel refused (crashed/stopped/unknown).
  uint64_t barrier_timeouts = 0;     // Freeze ack or checkpoint never arrived.
  uint64_t annex_reclaims = 0;       // Straggler annexes re-fed after a recorder restart.
};

class MigrationManager {
 public:
  // Local id of the manager's network identity on segment 0's recording
  // node (1 = kernel/recorder pid, 2 = that segment's recovery manager).
  static constexpr uint32_t kManagerLocalId = 3;

  // `net` must outlive the manager.  Reads `net->observability()` at Start(),
  // so enable observability first.
  explicit MigrationManager(Internet* net, MigrationManagerOptions options = {});

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  // Registers the manager pid, hooks segment 0's recorder packet chain, and
  // subscribes to every segment's recovery-completion listeners.
  void Start();

  // Begins a live move of `pid` to `to_node` (any processing node, any
  // segment).  Asynchronous: the move runs in virtual time; completion and
  // aborts surface through stats(), the move-done callback, and the
  // lifecycle tracker.  Fails fast when the process is unknown, already
  // where it is going, mid-recovery, mid-move, or not recoverable.
  Status Migrate(const ProcessId& pid, NodeId to_node);

  bool IsMigrating(const ProcessId& pid) const { return moves_.contains(pid); }
  size_t active_moves() const { return moves_.size(); }
  const MigrationStats& stats() const { return stats_; }
  ProcessId ManagerPid() const { return manager_pid_; }

  // Fired at terminal states: ok=true on completion (process live on the
  // destination), ok=false on abort.  Tests and the ElasticBalancer wait on
  // this.
  void set_move_done_callback(std::function<void(const ProcessId&, bool ok)> cb) {
    move_done_ = std::move(cb);
  }

 private:
  enum class Phase {
    kAwaitFreezeAck,   // kMigrateFreeze sent, barrier not yet confirmed.
    kAwaitCheckpoint,  // Frozen; polling for the barrier checkpoint.
    kReplaying,        // Hand-off done; destination replay in flight.
  };

  struct Move {
    ProcessId pid;
    NodeId from_node;
    NodeId to_node;
    int32_t from_segment = 0;
    int32_t to_segment = 0;
    uint64_t round = 0;  // Move nonce; stale acks and timers are dropped.
    uint64_t reads_done = 0;   // Barrier read count from the freeze ack.
    Phase phase = Phase::kAwaitFreezeAck;
    SimTime barrier_deadline = 0;
    bool move_opened = false;  // NoteMigrationStart issued (needs close/abort).
    uint64_t span_id = 0;      // Open migrate.move tracer span, 0 = none.
  };

  bool HandlePacket(const Packet& packet);
  // Recorder-restart sweep: any straggler annex the crashed recorder was
  // holding (messages that chased a migrated process to its old home) is
  // re-fed into the new home's log and replayed there.  Idempotent: the
  // destination's ever_logged set dedups re-appends, and recovery replay is
  // exactly-once, so a crash *during* the hand-off window loses nothing.
  void ReclaimAnnex(size_t segment);
  void OnFreezeAck(const MigrateFreezeAck& ack);
  void PollBarrier(const ProcessId& pid, uint64_t round);
  void HandOff(const ProcessId& pid);
  void OnRecoveryDone(const ProcessId& pid);
  void OnFreezeTimeout(const ProcessId& pid, uint64_t round);
  // Terminal failure: optionally unfreezes the source, closes the oracle
  // move window if one opened, and erases the move.
  void Abort(const ProcessId& pid, const std::string& reason, bool unfreeze);
  void SendToKernel(NodeId node, Bytes body);

  Internet* net_;
  MigrationManagerOptions options_;
  Simulator* sim_;
  ProcessId manager_pid_;
  std::map<ProcessId, Move> moves_;
  uint64_t next_round_ = 1;
  uint64_t send_seq_ = 0;
  MigrationStats stats_;
  std::function<void(const ProcessId&, bool)> move_done_;

  // Observability handles (null = detached), resolved at Start().
  LifecycleTracker* lifecycle_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::vector<CounterBinding> counters_;  // migrate.* read stats_.
};

}  // namespace publishing

#endif  // SRC_MIGRATE_MIGRATION_MANAGER_H_
