#include "src/core/recovery_manager.h"

#include <algorithm>

#include "src/common/logging.h"

namespace publishing {

namespace {
// The recovery manager's own network identity on the recording node.
constexpr uint32_t kManagerLocalId = 2;
}  // namespace

RecoveryManager::RecoveryManager(NodeDirectory* directory, Recorder* recorder,
                                 RecoveryManagerOptions options)
    : directory_(directory), recorder_(recorder), options_(options),
      sim_(&directory->sim()) {}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::SetObservability(const Observability& obs) {
  tracer_ = obs.tracer;
  counters_.clear();
  if (obs.metrics != nullptr) {
    obs.metrics->BindCounters(
        &counters_, {},
        {{"recovery.started", &stats_.process_recoveries_started},
         {"recovery.completed", &stats_.process_recoveries_completed},
         {"recovery.node_crashes_detected", &stats_.node_crashes_detected},
         {"recovery.replayed_messages", &stats_.replayed_messages},
         {"recovery.replay_bursts_sent", &stats_.replay_bursts_sent},
         {"recovery.replay_burst_retransmits", &stats_.replay_burst_retransmits},
         {"recovery.deferred", &stats_.recoveries_deferred}});
    // Byte-budget occupancy: replay bytes in flight against
    // max_outstanding_replay_bytes, the back-pressure the timeline watches.
    obs_outstanding_bytes_ = obs.metrics->GetGauge("recovery.outstanding_replay_bytes");
    obs_outstanding_bytes_->Set(static_cast<double>(outstanding_replay_bytes_));
  } else {
    obs_outstanding_bytes_ = nullptr;
  }
}

void RecoveryManager::UpdateBudgetGauge() {
  if (obs_outstanding_bytes_ != nullptr) {
    obs_outstanding_bytes_->Set(static_cast<double>(outstanding_replay_bytes_));
  }
}

void RecoveryManager::Start() {
  ProcessId manager{recorder_->node(), kManagerLocalId};
  directory_->names().SetLocation(manager, recorder_->node());

  recorder_->set_crash_notice_handler(
      [this](const ProcessId& pid) { OnProcessCrashNotice(pid); });
  recorder_->set_restart_handler([this](uint64_t n) { OnRecorderRestart(n); });
  recorder_->add_packet_handler([this](const Packet& packet) { return HandlePacket(packet); });

  // One watch process per processing node (§4.6).
  for (NodeId node : directory_->node_ids()) {
    NodeWatch watch;
    watch.last_pong = sim_->Now();
    watch.task = std::make_unique<PeriodicTask>(sim_, options_.watchdog_period,
                                                [this, node] { WatchdogTick(node); });
    watch.task->Start();
    watches_[node] = std::move(watch);
  }
}

uint64_t RecoveryManager::seq_for(const ProcessId& rproc) { return ++rproc_seqs_[rproc]; }

void RecoveryManager::SendFromRecoveryPid(const ProcessId& rproc, const ProcessId& dst,
                                          Bytes body) {
  auto location = directory_->names().Locate(dst);
  if (!location.ok()) {
    return;
  }
  Packet packet;
  packet.header.id = MessageId{rproc, seq_for(rproc)};
  packet.header.src_process = rproc;
  packet.header.dst_process = dst;
  packet.header.src_node = recorder_->node();
  packet.header.dst_node = *location;
  packet.header.flags = kFlagGuaranteed | kFlagControl;
  packet.body = std::move(body);
  recorder_->endpoint().Send(std::move(packet));
}

// ---------------------------------------------------------------------------
// Watchdogs (§4.6)
// ---------------------------------------------------------------------------

void RecoveryManager::WatchdogTick(NodeId node) {
  NodeWatch& watch = watches_[node];
  if (recorder_->down()) {
    // No traffic flows while the recorder is down; suspend judgement.
    watch.last_pong = sim_->Now();
    return;
  }
  if (!watch.declared_down && sim_->Now() - watch.last_pong > options_.watchdog_timeout) {
    DeclareNodeCrashed(node);
    return;
  }
  // "Are you alive?" — unguaranteed control traffic; losses are tolerated
  // because the next period asks again.
  ProcessId manager{recorder_->node(), kManagerLocalId};
  ProcessId kernel{node, NodeKernel::kKernelLocalId};
  auto location = directory_->names().Locate(kernel);
  if (!location.ok()) {
    return;
  }
  Packet packet;
  packet.header.id = MessageId{manager, seq_for(manager)};
  packet.header.src_process = manager;
  packet.header.dst_process = kernel;
  packet.header.src_node = recorder_->node();
  packet.header.dst_node = *location;
  packet.header.flags = kFlagControl;
  packet.body = EncodePing(KernelOp::kPing, {++watch.ping_nonce});
  recorder_->endpoint().Send(std::move(packet));
}

void RecoveryManager::HandlePong(NodeId node) {
  auto it = watches_.find(node);
  if (it == watches_.end()) {
    return;
  }
  it->second.last_pong = sim_->Now();
  it->second.declared_down = false;
}

void RecoveryManager::DeclareNodeCrashed(NodeId node) {
  NodeWatch& watch = watches_[node];
  watch.declared_down = true;
  ++stats_.node_crashes_detected;
  if (tracer_ != nullptr) {
    tracer_->Instant("recovery.node_crash_detected", "recovery", obs_track::kRecovery,
                     {{"node", std::to_string(node.value)}});
  }
  if (responsibility_ && !responsibility_(node)) {
    // A higher-priority recorder owns this node.  "If P_i does not recover
    // in a set interval, R periodically requeries its higher priority nodes
    // to see if they are willing to recover" (§6.3) — re-check later and
    // take over if responsibility has shifted to us.
    PUB_LOG_INFO("recovery: node %u crashed; deferring to higher-priority recorder",
                 node.value);
    RecheckTakeover(node);
    return;
  }
  PUB_LOG_INFO("recovery: node %u declared crashed", node.value);
  TriggerNodeRecovery(node);
}

void RecoveryManager::RecheckTakeover(NodeId node) {
  sim_->ScheduleAfter(options_.takeover_recheck, [this, node] {
    NodeWatch& watch = watches_[node];
    if (!watch.declared_down || recorder_->down()) {
      return;  // Recovered in the meantime (or we cannot act).
    }
    if (!responsibility_ || responsibility_(node)) {
      PUB_LOG_INFO("recovery: taking over recovery of node %u", node.value);
      TriggerNodeRecovery(node);
    } else {
      RecheckTakeover(node);  // Still someone else's job; keep watching.
    }
  });
}

void RecoveryManager::TriggerNodeRecovery(NodeId node) {
  NodeId target;
  switch (options_.node_policy) {
    case NodeRecoveryPolicy::kIgnore:
      return;
    case NodeRecoveryPolicy::kRestartSameNode: {
      NodeKernel* kernel = directory_->kernel(node);
      if (kernel == nullptr) {
        return;
      }
      if (!kernel->node_up()) {
        kernel->RestartNode();  // Operator power-cycles the processor.
      }
      target = node;
      break;
    }
    case NodeRecoveryPolicy::kMigrateToSpare:
      target = options_.spare_node;
      if (directory_->kernel(target) == nullptr) {
        PUB_LOG_ERROR("recovery: spare node %u missing", target.value);
        return;
      }
      break;
  }

  if (options_.node_unit) {
    StartNodeRecovery(target);
    return;
  }

  // Make sure the (re)started node never reuses ids the dead incarnation
  // consumed (§4.7 / DESIGN.md).
  ProcessId manager{recorder_->node(), kManagerLocalId};
  LocalIdFloor floor;
  floor.floor = recorder_->storage().LocalIdHighWater(target);
  floor.kernel_seq_floor = recorder_->storage().LastSent(
                               ProcessId{target, NodeKernel::kKernelLocalId}) +
                           (uint64_t{1} << 20);
  SendFromRecoveryPid(manager, ProcessId{target, NodeKernel::kKernelLocalId},
                      EncodeLocalIdFloor(floor));

  for (const ProcessId& pid : recorder_->storage().ProcessesOnNode(node)) {
    StartRecovery(pid, target);
  }
}

// ---------------------------------------------------------------------------
// Process recovery (§3.3.3, §4.7)
// ---------------------------------------------------------------------------

void RecoveryManager::OnProcessCrashNotice(const ProcessId& pid) {
  if (tracer_ != nullptr) {
    tracer_->Instant("recovery.crash_notice", "recovery", obs_track::kRecovery,
                     {{"pid", ToString(pid)}});
  }
  if (responsibility_) {
    auto info = recorder_->storage().Info(pid);
    if (info.ok() && !responsibility_(info->home_node)) {
      return;  // Another recorder owns this process's node (§6.3).
    }
  }
  if (options_.node_unit) {
    // §1.1.2: "the system is permitted to 'round up' any system fault to a
    // crash of all the processes affected" — in node-unit mode a process
    // fault becomes a node recovery.
    auto location = directory_->names().Locate(pid);
    if (location.ok()) {
      TriggerNodeRecovery(*location);
    }
    return;
  }
  auto it = recoveries_.find(pid);
  NodeId target;
  if (it != recoveries_.end()) {
    // Recursive crash of a recovering process (§3.5): terminate the old
    // recovery process — abandoning any replay window in flight — and start
    // a fresh one.  The new round number keeps stale bursts and completions
    // from the dead attempt out of the new one.
    ++stats_.recursive_recoveries;
    target = it->second.node;
    ReleaseReplayState(it->second);
    recoveries_.erase(it);
  } else {
    auto info = recorder_->storage().Info(pid);
    if (!info.ok() || info->destroyed || info->program.empty()) {
      return;
    }
    target = info->home_node;
  }
  StartRecovery(pid, target);
}

void RecoveryManager::RecoverProcessOn(const ProcessId& pid, NodeId node) {
  StartRecovery(pid, node);
}

void RecoveryManager::StartRecovery(const ProcessId& pid, NodeId target_node) {
  if (recoveries_.contains(pid) || pending_set_.contains(pid)) {
    return;
  }
  if (options_.max_concurrent_recoveries > 0 &&
      recoveries_.size() >= options_.max_concurrent_recoveries) {
    // Scheduler admission control: queue behind the concurrency cap.
    pending_.emplace_back(pid, target_node);
    pending_set_.insert(pid);
    ++stats_.recoveries_deferred;
    if (tracer_ != nullptr) {
      tracer_->Instant("recovery.deferred", "recovery", obs_track::kRecovery,
                       {{"pid", ToString(pid)},
                        {"queued", std::to_string(pending_.size())}});
    }
    return;
  }
  AdmitRecovery(pid, target_node);
}

void RecoveryManager::AdmitPending() {
  while (!pending_.empty() &&
         (options_.max_concurrent_recoveries == 0 ||
          recoveries_.size() < options_.max_concurrent_recoveries)) {
    auto [pid, node] = pending_.front();
    pending_.pop_front();
    pending_set_.erase(pid);
    if (!recoveries_.contains(pid)) {
      AdmitRecovery(pid, node);
    }
  }
}

void RecoveryManager::AdmitRecovery(const ProcessId& pid, NodeId target_node) {
  auto info = recorder_->storage().Info(pid);
  if (!info.ok() || info->destroyed || info->program.empty() || !info->recoverable) {
    return;
  }
  RecoveryProcess rp;
  rp.target = pid;
  rp.rproc = ProcessId{recorder_->node(), next_rproc_local_++};
  rp.node = target_node;
  rp.round = next_round_++;
  directory_->names().SetLocation(rp.rproc, recorder_->node());

  RecreateRequest req;
  req.pid = pid;
  req.program = info->program;
  req.last_sent_seq = recorder_->storage().LastSent(pid);
  req.recovery_round = rp.round;
  auto checkpoint = recorder_->storage().LoadCheckpoint(pid);
  if (checkpoint.ok()) {
    req.has_checkpoint = true;
    req.checkpoint_state = std::move(*checkpoint);
  } else {
    req.initial_links = info->initial_links;
  }

  ++stats_.process_recoveries_started;
  if (tracer_ != nullptr) {
    rp.span_id = tracer_->BeginSpan(
        "recovery.process", "recovery", obs_track::kRecovery,
        {{"pid", ToString(pid)},
         {"node", std::to_string(target_node.value)},
         {"round", std::to_string(rp.round)},
         {"checkpoint", req.has_checkpoint ? "yes" : "no"}});
    if (req.has_checkpoint) {
      tracer_->Instant("recovery.checkpoint_loaded", "recovery", obs_track::kRecovery,
                       {{"pid", ToString(pid)},
                        {"bytes", std::to_string(req.checkpoint_state.size())}});
    }
  }
  // §3.3.1: "whether or not the process is recovering" is part of the stable
  // database entry, so a recorder rebuilt from disk knows which recoveries
  // its previous incarnation left in flight.
  recorder_->storage().SetRecovering(pid, true);
  PUB_LOG_INFO("recovery: recovering %s on node %u (round %llu)", ToString(pid).c_str(),
               target_node.value, static_cast<unsigned long long>(rp.round));
  SendFromRecoveryPid(rp.rproc, ProcessId{target_node, NodeKernel::kKernelLocalId},
                      EncodeRecreateRequest(req));
  recoveries_[pid] = std::move(rp);
}

void RecoveryManager::BeginReplay(RecoveryProcess& rp) {
  recorder_->storage().SetHomeNode(rp.target, rp.node);
  // Snapshot the log only now, after the kernel has acknowledged the
  // recreate.  Every message the crashed/recreating process failed to accept
  // was necessarily published (the tap precedes delivery) and delivered —
  // hence dropped — before the kernel processed the recreate request, so a
  // snapshot taken after the recreate-ack provably contains all of them.
  // Anything logged later is being held in the kernel's pending-live queue
  // and gets released (minus replayed ids) at recovery completion.
  ReplayCursor cursor = recorder_->storage().Replay(rp.target);
  if (tracer_ != nullptr) {
    rp.replay_span_id = tracer_->BeginSpan(
        "recovery.replay", "recovery", obs_track::kRecovery,
        {{"pid", ToString(rp.target)},
         {"messages", std::to_string(cursor.size())},
         {"bytes", std::to_string(cursor.payload_bytes())},
         {"mode", options_.pipelined_replay ? "pipelined" : "stop_and_wait"}});
  }
  stats_.replayed_messages += cursor.size();
  if (!options_.pipelined_replay) {
    // Baseline (§4.7 verbatim): inject every published message one at a
    // time, flagged as replay so the duplicate cache lets it through.  The
    // transport's one-outstanding-per-node rule keeps these — and the
    // completion that follows — in order.
    for (const LogEntry& entry : cursor) {
      auto packet = ParsePacket(entry.packet);
      if (!packet.ok()) {
        PUB_LOG_ERROR("recovery: corrupt log entry for %s", ToString(rp.target).c_str());
        continue;
      }
      packet->header.flags |= kFlagReplay | kFlagGuaranteed;
      packet->header.dst_node = rp.node;
      recorder_->endpoint().Send(std::move(*packet));
    }
    FinishReplay(rp);
    return;
  }
  // Pipelined fast path (DESIGN.md §11): partition the cursor into burst
  // frames of shared segments — each Buffer below is a refcount bump on the
  // stored wire bytes, never a payload copy — and stream them through a
  // sliding window.  The kernel unpacks bursts strictly in burst_seq order,
  // so the paper's in-order replay semantics are preserved.
  rp.bursts.clear();
  ReplayBurstBuffers current;
  for (const LogEntry& entry : cursor) {
    if (!current.segments.empty() &&
        (current.segments.size() >= options_.replay_burst_max_messages ||
         current.bytes + entry.packet.size() > options_.replay_burst_max_bytes)) {
      rp.bursts.push_back(std::move(current));
      current = {};
    }
    current.bytes += entry.packet.size();
    current.segments.push_back(entry.packet);
  }
  if (!current.segments.empty()) {
    rp.bursts.push_back(std::move(current));
  }
  if (rp.bursts.empty()) {
    FinishReplay(rp);
    return;
  }
  rp.phase = Phase::kReplaying;
  rp.next_burst = 0;
  rp.highest_acked = 0;
  rp.bytes_in_flight = 0;
  rp.retransmit_timeout = options_.replay_retransmit_timeout;
  PumpReplayWindow(rp);
}

void RecoveryManager::SendBurst(RecoveryProcess& rp, size_t index) {
  const ReplayBurstBuffers& burst = rp.bursts[index];
  Packet packet;
  packet.header.id = MessageId{rp.rproc, seq_for(rp.rproc)};
  packet.header.src_process = rp.rproc;
  packet.header.dst_process = ProcessId{rp.node, NodeKernel::kKernelLocalId};
  packet.header.src_node = recorder_->node();
  packet.header.dst_node = rp.node;
  // Unguaranteed control: the transport's stop-and-wait window is exactly
  // the serialization bursting exists to escape; loss recovery is this
  // layer's go-back-N.  Control also keeps the recorder from re-publishing.
  packet.header.flags = kFlagControl;
  packet.body = EncodeReplayBurst({rp.target, rp.round, index + 1,
                                   static_cast<uint32_t>(burst.segments.size())});
  packet.segments = burst.segments;  // Shared views; zero payload bytes copied.
  ++stats_.replay_bursts_sent;
  recorder_->endpoint().Send(std::move(packet));
}

void RecoveryManager::PumpReplayWindow(RecoveryProcess& rp) {
  while (rp.next_burst < rp.bursts.size() &&
         rp.next_burst < rp.highest_acked + options_.replay_window) {
    const size_t burst_bytes = rp.bursts[rp.next_burst].bytes;
    if (rp.bytes_in_flight > 0 && options_.max_outstanding_replay_bytes > 0 &&
        outstanding_replay_bytes_ + burst_bytes > options_.max_outstanding_replay_bytes) {
      // Global back-pressure; resumes when acks drain the budget.  A
      // recovery with nothing in flight always proceeds (no deadlock).
      break;
    }
    SendBurst(rp, rp.next_burst);
    rp.bytes_in_flight += burst_bytes;
    outstanding_replay_bytes_ += burst_bytes;
    ++rp.next_burst;
  }
  UpdateBudgetGauge();
  ArmReplayTimer(rp);
}

void RecoveryManager::PumpAllReplaying() {
  for (auto& [pid, rp] : recoveries_) {
    if (rp.phase == Phase::kReplaying) {
      PumpReplayWindow(rp);
    }
  }
}

void RecoveryManager::ArmReplayTimer(RecoveryProcess& rp) {
  sim_->Cancel(rp.retransmit_timer);
  rp.retransmit_timer = EventId{};
  if (rp.highest_acked >= rp.next_burst) {
    return;  // Nothing in flight.
  }
  const ProcessId pid = rp.target;
  const uint64_t round = rp.round;
  rp.retransmit_timer = sim_->ScheduleAfter(
      rp.retransmit_timeout, [this, pid, round] { OnReplayTimeout(pid, round); });
}

void RecoveryManager::OnReplayTimeout(const ProcessId& pid, uint64_t round) {
  auto it = recoveries_.find(pid);
  if (it == recoveries_.end() || it->second.round != round ||
      it->second.phase != Phase::kReplaying) {
    return;
  }
  RecoveryProcess& rp = it->second;
  // Go-back-N: resend every un-acked burst in the window (the kernel drops
  // out-of-order bursts, so anything after a lost frame was discarded).
  rp.retransmit_timeout =
      std::min(rp.retransmit_timeout * 2, options_.replay_max_retransmit_timeout);
  for (size_t i = rp.highest_acked; i < rp.next_burst; ++i) {
    SendBurst(rp, i);
    ++stats_.replay_burst_retransmits;
  }
  if (tracer_ != nullptr) {
    tracer_->Instant("recovery.replay_retransmit", "recovery", obs_track::kRecovery,
                     {{"pid", ToString(pid)},
                      {"from_seq", std::to_string(rp.highest_acked + 1)}});
  }
  ArmReplayTimer(rp);
}

void RecoveryManager::FinishReplay(RecoveryProcess& rp) {
  rp.bursts.clear();
  SendFromRecoveryPid(rp.rproc, ProcessId{rp.node, NodeKernel::kKernelLocalId},
                      EncodeRecoveryTarget(KernelOp::kRecoveryComplete, {rp.target, rp.round}));
  rp.phase = Phase::kAwaitCompleteAck;
}

void RecoveryManager::ReleaseReplayState(RecoveryProcess& rp) {
  sim_->Cancel(rp.retransmit_timer);
  rp.retransmit_timer = EventId{};
  outstanding_replay_bytes_ -= rp.bytes_in_flight;
  rp.bytes_in_flight = 0;
  rp.bursts.clear();
  UpdateBudgetGauge();
}

// ---------------------------------------------------------------------------
// Node-unit recovery (§6.6.2)
// ---------------------------------------------------------------------------

void RecoveryManager::StartNodeRecovery(NodeId node) {
  if (node_recoveries_.contains(node)) {
    return;
  }
  NodeRecovery nr;
  nr.node = node;
  nr.rproc = ProcessId{recorder_->node(), next_rproc_local_++};
  nr.round = next_round_++;
  directory_->names().SetLocation(nr.rproc, recorder_->node());

  RestoreNodeRequest req;
  req.node = node;
  req.recovery_round = nr.round;
  auto checkpoint = recorder_->storage().LoadNodeCheckpoint(node);
  if (checkpoint.ok()) {
    req.has_image = true;
    req.image = std::move(checkpoint->image);
  }
  for (const ProcessId& pid : recorder_->storage().ProcessesOnNode(node)) {
    req.last_sent.emplace_back(pid, recorder_->storage().LastSent(pid));
  }
  // The kernel process's own watermark rides along too: the restored kernel
  // must not reuse message ids its dead incarnation already consumed (they
  // sit in peers' duplicate caches).
  ProcessId kernel_pid{node, NodeKernel::kKernelLocalId};
  req.last_sent.emplace_back(kernel_pid, recorder_->storage().LastSent(kernel_pid));
  ++stats_.process_recoveries_started;
  if (tracer_ != nullptr) {
    nr.span_id = tracer_->BeginSpan(
        "recovery.process", "recovery", obs_track::kRecovery,
        {{"node", std::to_string(node.value)},
         {"round", std::to_string(nr.round)},
         {"checkpoint", req.has_image ? "yes" : "no"},
         {"unit", "node"}});
    if (req.has_image) {
      tracer_->Instant("recovery.checkpoint_loaded", "recovery", obs_track::kRecovery,
                       {{"node", std::to_string(node.value)},
                        {"bytes", std::to_string(req.image.size())}});
    }
  }
  PUB_LOG_INFO("recovery: node-unit recovery of node %u (round %llu, image: %s)", node.value,
               static_cast<unsigned long long>(nr.round), req.has_image ? "yes" : "none");
  SendFromRecoveryPid(nr.rproc, ProcessId{node, NodeKernel::kKernelLocalId},
                      EncodeRestoreNodeRequest(req));
  node_recoveries_[node] = std::move(nr);
}

void RecoveryManager::BeginNodeReplay(NodeRecovery& nr) {
  // Snapshot after the restore-ack, for the same reason BeginReplay does.
  const auto node_replay = recorder_->storage().NodeReplayList(nr.node);
  if (tracer_ != nullptr) {
    nr.replay_span_id = tracer_->BeginSpan(
        "recovery.replay", "recovery", obs_track::kRecovery,
        {{"node", std::to_string(nr.node.value)},
         {"messages", std::to_string(node_replay.size())}});
  }
  stats_.replayed_messages += node_replay.size();
  for (const StableStorage::NodeLogEntry& entry : node_replay) {
    // Serialize straight from the stored Buffer view — no counted ToBytes
    // materialization on the replay path.
    SendFromRecoveryPid(nr.rproc, ProcessId{nr.node, NodeKernel::kKernelLocalId},
                        EncodeNodeReplayMessage(entry.step, entry.packet));
  }
  SendFromRecoveryPid(
      nr.rproc, ProcessId{nr.node, NodeKernel::kKernelLocalId},
      EncodeNodeRecoveryRound(KernelOp::kNodeRecoveryComplete, {nr.node, nr.round}));
  nr.phase = Phase::kAwaitCompleteAck;
}

// ---------------------------------------------------------------------------
// Inbound packets
// ---------------------------------------------------------------------------

bool RecoveryManager::HandlePacket(const Packet& packet) {
  switch (PeekOp(packet.body)) {
    case KernelOp::kPong:
      HandlePong(packet.header.src_node);
      return true;
    case KernelOp::kRecreateAck: {
      auto target = DecodeRecoveryTarget(packet.body);
      if (!target.ok()) {
        return true;
      }
      auto it = recoveries_.find(target->pid);
      if (it != recoveries_.end() && it->second.round == target->recovery_round &&
          it->second.phase == Phase::kAwaitRecreateAck) {
        BeginReplay(it->second);
      }
      return true;
    }
    case KernelOp::kReplayBurstAck: {
      auto ack = DecodeReplayBurstAck(packet.body);
      if (!ack.ok()) {
        return true;
      }
      auto it = recoveries_.find(ack->pid);
      if (it == recoveries_.end() || it->second.round != ack->recovery_round ||
          it->second.phase != Phase::kReplaying) {
        return true;  // Stale round or attempt already gone (§3.5).
      }
      RecoveryProcess& rp = it->second;
      if (ack->cumulative_seq <= rp.highest_acked) {
        return true;  // Duplicate/reordered ack.
      }
      const uint64_t acked_upto = std::min<uint64_t>(ack->cumulative_seq, rp.next_burst);
      for (uint64_t i = rp.highest_acked; i < acked_upto; ++i) {
        const size_t burst_bytes = rp.bursts[i].bytes;
        rp.bytes_in_flight -= burst_bytes;
        outstanding_replay_bytes_ -= burst_bytes;
      }
      rp.highest_acked = acked_upto;
      UpdateBudgetGauge();
      rp.retransmit_timeout = options_.replay_retransmit_timeout;  // Progress resets backoff.
      if (rp.highest_acked >= rp.bursts.size()) {
        sim_->Cancel(rp.retransmit_timer);
        rp.retransmit_timer = EventId{};
        FinishReplay(rp);
      } else {
        PumpReplayWindow(rp);
      }
      // The ack freed byte budget — budget-stalled recoveries may now pump.
      PumpAllReplaying();
      return true;
    }
    case KernelOp::kRecoveryCompleteAck: {
      auto target = DecodeRecoveryTarget(packet.body);
      if (!target.ok()) {
        return true;
      }
      auto it = recoveries_.find(target->pid);
      if (it != recoveries_.end() && it->second.round == target->recovery_round &&
          it->second.phase == Phase::kAwaitCompleteAck) {
        ProcessId pid = it->second.target;
        if (tracer_ != nullptr) {
          if (it->second.replay_span_id != 0) {
            tracer_->EndSpan(it->second.replay_span_id, "recovery.replay", "recovery",
                             obs_track::kRecovery);
          }
          if (it->second.span_id != 0) {
            tracer_->EndSpan(it->second.span_id, "recovery.process", "recovery",
                             obs_track::kRecovery);
          }
          tracer_->Instant("recovery.caught_up", "recovery", obs_track::kRecovery,
                           {{"pid", ToString(pid)}});
        }
        ReleaseReplayState(it->second);
        recoveries_.erase(it);
        recorder_->storage().SetRecovering(pid, false);
        ++stats_.process_recoveries_completed;
        PUB_LOG_INFO("recovery: %s recovered", ToString(pid).c_str());
        if (recovery_done_) {
          recovery_done_(pid);
        }
        for (const auto& listener : recovery_listeners_) {
          listener(pid);
        }
        AdmitPending();  // A slot freed; admit queued recoveries.
      }
      return true;
    }
    case KernelOp::kRestoreNodeAck: {
      auto round = DecodeNodeRecoveryRound(packet.body);
      if (!round.ok()) {
        return true;
      }
      auto it = node_recoveries_.find(round->node);
      if (it != node_recoveries_.end() && it->second.round == round->recovery_round &&
          it->second.phase == Phase::kAwaitRecreateAck) {
        BeginNodeReplay(it->second);
      }
      return true;
    }
    case KernelOp::kNodeRecoveryCompleteAck: {
      auto round = DecodeNodeRecoveryRound(packet.body);
      if (!round.ok()) {
        return true;
      }
      auto it = node_recoveries_.find(round->node);
      if (it != node_recoveries_.end() && it->second.round == round->recovery_round &&
          it->second.phase == Phase::kAwaitCompleteAck) {
        if (tracer_ != nullptr) {
          if (it->second.replay_span_id != 0) {
            tracer_->EndSpan(it->second.replay_span_id, "recovery.replay", "recovery",
                             obs_track::kRecovery);
          }
          if (it->second.span_id != 0) {
            tracer_->EndSpan(it->second.span_id, "recovery.process", "recovery",
                             obs_track::kRecovery);
          }
          tracer_->Instant("recovery.caught_up", "recovery", obs_track::kRecovery,
                           {{"node", std::to_string(round->node.value)}});
        }
        node_recoveries_.erase(it);
        ++stats_.process_recoveries_completed;
        PUB_LOG_INFO("recovery: node %u recovered as a unit", round->node.value);
        if (recovery_done_) {
          recovery_done_(ProcessId{round->node, NodeKernel::kKernelLocalId});
        }
        for (const auto& listener : recovery_listeners_) {
          listener(ProcessId{round->node, NodeKernel::kKernelLocalId});
        }
      }
      return true;
    }
    case KernelOp::kStateReply: {
      auto reply = DecodeStateReply(packet.body);
      if (!reply.ok()) {
        return true;
      }
      if (reply->restart_number != current_restart_number_) {
        // §3.4: responses belonging to an earlier restart are ignored.
        ++stats_.stale_state_replies_ignored;
        return true;
      }
      for (const auto& [pid, answer] : reply->answers) {
        auto info = recorder_->storage().Info(pid);
        if (!info.ok() || info->home_node != reply->node) {
          continue;
        }
        switch (answer) {
          case ProcessStateAnswer::kFunctioning:
            break;  // Nothing happened; no action (§3.3.4).
          case ProcessStateAnswer::kCrashed:
          case ProcessStateAnswer::kRecovering:
          case ProcessStateAnswer::kUnknown:
            StartRecovery(pid, reply->node);
            break;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Recorder restart (§3.3.4)
// ---------------------------------------------------------------------------

void RecoveryManager::OnRecorderRestart(uint64_t restart_number) {
  current_restart_number_ = restart_number;
  // Recovery processes did not survive the recorder crash; the state replies
  // will tell us which targets are stuck in "recovering".
  for (auto& [pid, rp] : recoveries_) {
    ReleaseReplayState(rp);
  }
  recoveries_.clear();
  pending_.clear();
  pending_set_.clear();
  outstanding_replay_bytes_ = 0;
  UpdateBudgetGauge();
  // Reset the watchdogs' clocks — no pongs flowed while we were down.
  for (auto& [node, watch] : watches_) {
    watch.last_pong = sim_->Now();
  }
  ProcessId manager{recorder_->node(), kManagerLocalId};
  StateQuery query;
  query.restart_number = restart_number;
  query.pids = recorder_->storage().AllProcesses();
  for (NodeId node : directory_->node_ids()) {
    ++stats_.state_queries_sent;
    SendFromRecoveryPid(manager, ProcessId{node, NodeKernel::kKernelLocalId},
                        EncodeStateQuery(query));
  }
}

}  // namespace publishing
