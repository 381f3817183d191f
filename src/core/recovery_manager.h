// The recovery manager (§3.3.3) and its watchdog and recovery processes.
//
// Lives on the recording node.  It learns about crashes two ways:
//   * kNoticeCrash traps from kernels (single-process crashes, §3.3.2), and
//   * watchdog timeouts (processor crashes, §4.6: a watch process per node
//     periodically sends "are you alive" requests and declares the node
//     crashed when replies stop).
//
// For each crashed process it runs a recovery process (§4.7):
//   1. pick a node (same node, or a spare under the migration policy);
//   2. send a recreate request carrying the checkpoint (or the initial
//      image's name), the last-sent watermark, and the recovery round;
//   3. on recreate-ack, stream every logged message, flagged kFlagReplay, in
//      the recorded read order — by default as windowed replay bursts with
//      cumulative acks and go-back-N retransmission (DESIGN.md §11); the
//      paper's one-at-a-time stop-and-wait injection remains available as
//      the pipelined_replay=false baseline;
//   4. send recovery-complete; on its ack the process is live again.
//
// Under a mass crash the manager acts as a concurrent recovery scheduler:
// recoveries past max_concurrent_recoveries queue for admission, and a global
// outstanding-replay-byte budget back-pressures burst transmission so the
// recorder is never asked to push more replay payload than it can service.
//
// Recursive crashes (§3.5) abort the attempt and start a new round; the
// round number keeps stale completions from finishing the new attempt.
// After a recorder restart, the state-query protocol (§3.3.4) classifies
// every known process as functioning / crashed / recovering / unknown and
// restarts recovery where needed, ignoring replies from older restarts.

#ifndef SRC_CORE_RECOVERY_MANAGER_H_
#define SRC_CORE_RECOVERY_MANAGER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/recorder.h"
#include "src/demos/node_directory.h"

namespace publishing {

enum class NodeRecoveryPolicy {
  kRestartSameNode,  // Power-cycle the node, then recover its processes there.
  kMigrateToSpare,   // Recover the node's processes on a configured spare.
  kIgnore,           // Leave the node down (operator action "do not recover").
};

struct RecoveryManagerOptions {
  SimDuration watchdog_period = Millis(200);
  // A node is declared crashed when no pong has been seen for this long.
  SimDuration watchdog_timeout = Millis(900);
  NodeRecoveryPolicy node_policy = NodeRecoveryPolicy::kRestartSameNode;
  NodeId spare_node{};  // Target for kMigrateToSpare.
  // §6.6.2: recover crashed nodes as units (whole-node image + step-stamped
  // extranode replay) instead of process by process.  Requires the cluster
  // and recorder to run in node-unit mode too.
  bool node_unit = false;
  // Multi-recorder (§6.3): when this manager is not the responsible recorder
  // for a crashed node, it re-checks after this interval and takes over if
  // the node is still down and responsibility has shifted to it (i.e. the
  // higher-priority recorder failed during the recovery).
  SimDuration takeover_recheck = Seconds(2);

  // --- Pipelined replay (DESIGN.md §11) ---
  // When set, replay streams the log as windowed multi-message bursts with
  // cumulative acks and go-back-N retransmission instead of one guaranteed
  // stop-and-wait frame per logged message (the paper's §4.7 behaviour,
  // still available as the baseline with pipelined_replay = false).
  bool pipelined_replay = true;
  size_t replay_burst_max_messages = 16;   // Logged packets per burst frame.
  size_t replay_burst_max_bytes = 8192;    // Payload-byte cap per burst.
  size_t replay_window = 4;                // Bursts in flight per recovery.
  SimDuration replay_retransmit_timeout = Millis(80);
  SimDuration replay_max_retransmit_timeout = Millis(640);

  // --- Concurrent recovery scheduler ---
  // At most this many process recoveries run at once (0 = unlimited); the
  // rest queue and are admitted as slots free up.  The byte budget bounds
  // un-acked replay payload across ALL active recoveries — back-pressure so
  // a mass crash cannot swamp the recorder's CPU/medium (each recovery is
  // always allowed one burst in flight, so the budget cannot deadlock).
  size_t max_concurrent_recoveries = 8;
  size_t max_outstanding_replay_bytes = 64 * 1024;
};

struct RecoveryManagerStats {
  uint64_t process_recoveries_started = 0;
  uint64_t process_recoveries_completed = 0;
  uint64_t node_crashes_detected = 0;
  uint64_t recursive_recoveries = 0;
  uint64_t state_queries_sent = 0;
  uint64_t stale_state_replies_ignored = 0;
  uint64_t replayed_messages = 0;  // Log entries handed to replay.
  uint64_t replay_bursts_sent = 0;
  uint64_t replay_burst_retransmits = 0;
  uint64_t recoveries_deferred = 0;  // Queued behind max_concurrent_recoveries.
};

class RecoveryManager {
 public:
  // `directory` scopes this manager: it watches and recovers the processes
  // on the directory's nodes (the whole installation for a Cluster; one
  // segment's nodes in the src/internet topology).
  RecoveryManager(NodeDirectory* directory, Recorder* recorder,
                  RecoveryManagerOptions options);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // Starts the watchdogs and hooks the recorder's notice/restart handlers.
  void Start();

  // Entry points (also reachable directly from tests).
  void OnProcessCrashNotice(const ProcessId& pid);
  void OnRecorderRestart(uint64_t restart_number);
  void TriggerNodeRecovery(NodeId node);
  // Live migration (src/migrate): runs the normal recovery machinery —
  // recreate from the stored (barrier) checkpoint, pipelined replay of the
  // retained log, completion handshake — but pointed at `node` instead of
  // the crash site.  The storage entry's home is re-pointed by BeginReplay
  // as for any cross-node recovery.  No-op if a recovery for `pid` is
  // already in flight.
  void RecoverProcessOn(const ProcessId& pid, NodeId node);

  bool IsRecovering(const ProcessId& pid) const {
    return recoveries_.contains(pid) || pending_set_.contains(pid);
  }
  size_t active_recoveries() const { return recoveries_.size(); }
  size_t pending_recoveries() const { return pending_.size(); }
  size_t outstanding_replay_bytes() const { return outstanding_replay_bytes_; }
  const RecoveryManagerStats& stats() const { return stats_; }

  // Invoked each time a process recovery finishes (tests use this to wait).
  void set_recovery_done_callback(std::function<void(const ProcessId&)> cb) {
    recovery_done_ = std::move(cb);
  }
  // Persistent listener list, fired alongside the single-slot callback on
  // every completed recovery.  The migration manager registers here to learn
  // when a destination-side replay it requested has finished.
  void AddRecoveryListener(std::function<void(const ProcessId&)> listener) {
    recovery_listeners_.push_back(std::move(listener));
  }

  // Multi-recorder coordination (§6.3): consulted before this manager acts
  // on a crash.  Null (default) means "always responsible" — the
  // single-recorder configuration.
  void set_responsibility_filter(std::function<bool(NodeId)> filter) {
    responsibility_ = std::move(filter);
  }

  // Resolves the manager's instruments (recovery.* series) and keeps the
  // tracer for the crash → replay → caught-up recovery timeline.
  void SetObservability(const Observability& obs);

 private:
  enum class Phase { kAwaitRecreateAck, kReplaying, kAwaitCompleteAck };

  // One burst frame's worth of logged packets: shared views into stable
  // storage, partitioned once from the replay cursor.
  struct ReplayBurstBuffers {
    std::vector<Buffer> segments;
    size_t bytes = 0;  // Sum of segment payload sizes.
  };

  struct RecoveryProcess {
    ProcessId target;       // Process being recovered.
    ProcessId rproc;        // The recovery process's own network identity.
    NodeId node;            // Node the process is being recreated on.
    uint64_t round = 0;
    Phase phase = Phase::kAwaitRecreateAck;
    // Pipelined replay window state (Phase::kReplaying).
    std::vector<ReplayBurstBuffers> bursts;
    size_t next_burst = 0;       // Index of the next unsent burst.
    uint64_t highest_acked = 0;  // Bursts [0, highest_acked) cumulatively acked.
    size_t bytes_in_flight = 0;  // Un-acked payload bytes, counted once.
    EventId retransmit_timer;    // Go-back-N timer; invalid when idle.
    SimDuration retransmit_timeout = 0;
    uint64_t span_id = 0;          // Open recovery.process span, 0 = none.
    uint64_t replay_span_id = 0;   // Open recovery.replay span, 0 = none.
  };

  struct NodeWatch {
    std::unique_ptr<PeriodicTask> task;
    SimTime last_pong = 0;
    bool declared_down = false;
    uint64_t ping_nonce = 0;
  };

  // §6.6.2 whole-node recovery attempt.
  struct NodeRecovery {
    NodeId node;
    ProcessId rproc;
    uint64_t round = 0;
    Phase phase = Phase::kAwaitRecreateAck;
    uint64_t span_id = 0;          // Open recovery.process span, 0 = none.
    uint64_t replay_span_id = 0;   // Open recovery.replay span, 0 = none.
  };

  void StartRecovery(const ProcessId& pid, NodeId target_node);
  void AdmitRecovery(const ProcessId& pid, NodeId target_node);
  void AdmitPending();
  void BeginReplay(RecoveryProcess& rp);
  void PumpReplayWindow(RecoveryProcess& rp);
  void PumpAllReplaying();
  void SendBurst(RecoveryProcess& rp, size_t index);
  void ArmReplayTimer(RecoveryProcess& rp);
  void OnReplayTimeout(const ProcessId& pid, uint64_t round);
  void FinishReplay(RecoveryProcess& rp);
  // Cancels the go-back-N timer and returns un-acked bytes to the global
  // budget; required before erasing a recovery in any phase.
  void ReleaseReplayState(RecoveryProcess& rp);
  // Refreshes the recovery.outstanding_replay_bytes gauge after any budget
  // mutation (no-op with metrics detached).
  void UpdateBudgetGauge();
  void StartNodeRecovery(NodeId node);
  void BeginNodeReplay(NodeRecovery& nr);
  bool HandlePacket(const Packet& packet);
  void HandlePong(NodeId node);
  void WatchdogTick(NodeId node);
  void DeclareNodeCrashed(NodeId node);
  void RecheckTakeover(NodeId node);
  void SendFromRecoveryPid(const ProcessId& rproc, const ProcessId& dst_kernel, Bytes body);
  uint64_t seq_for(const ProcessId& rproc);

  NodeDirectory* directory_;
  Recorder* recorder_;
  RecoveryManagerOptions options_;
  Simulator* sim_;

  std::map<ProcessId, RecoveryProcess> recoveries_;
  std::map<NodeId, NodeRecovery> node_recoveries_;
  // Admission queue: crashes past the concurrency cap wait here in FIFO
  // order and are admitted as active recoveries complete or abort.
  std::deque<std::pair<ProcessId, NodeId>> pending_;
  std::set<ProcessId> pending_set_;
  size_t outstanding_replay_bytes_ = 0;  // Across all active recoveries.
  std::unordered_map<ProcessId, uint64_t> rproc_seqs_;
  std::map<NodeId, NodeWatch> watches_;
  uint32_t next_rproc_local_ = 100;
  uint64_t next_round_ = 1;
  uint64_t current_restart_number_ = 0;
  RecoveryManagerStats stats_;
  std::function<void(const ProcessId&)> recovery_done_;
  std::vector<std::function<void(const ProcessId&)>> recovery_listeners_;
  std::function<bool(NodeId)> responsibility_;

  // Observability handles (null = detached).
  Tracer* tracer_ = nullptr;
  Gauge* obs_outstanding_bytes_ = nullptr;
  std::vector<CounterBinding> counters_;  // recovery.* read stats_.
};

}  // namespace publishing

#endif  // SRC_CORE_RECOVERY_MANAGER_H_
