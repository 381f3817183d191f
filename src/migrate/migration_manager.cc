#include "src/migrate/migration_manager.h"

#include <utility>

#include "src/common/logging.h"

namespace publishing {

MigrationManager::MigrationManager(Internet* net, MigrationManagerOptions options)
    : net_(net),
      options_(options),
      sim_(&net->sim()),
      manager_pid_{Internet::SegmentRecorderNode(0), kManagerLocalId} {}

void MigrationManager::Start() {
  net_->names().SetLocation(manager_pid_, net_->recorder(0).node());
  // Behind the recovery manager in segment 0's handler chain: freeze acks
  // are the only kernel op addressed to this pid, so order barely matters,
  // but riding last keeps the recovery protocol's first-refusal intact.
  net_->recorder(0).add_packet_handler(
      [this](const Packet& packet) { return HandlePacket(packet); });
  for (size_t s = 0; s < net_->segment_count(); ++s) {
    net_->recovery(s).AddRecoveryListener(
        [this](const ProcessId& pid) { OnRecoveryDone(pid); });
  }
  net_->AddRecorderRestartListener(
      [this](size_t segment) { ReclaimAnnex(segment); });
  const Observability& obs = net_->observability();
  lifecycle_ = obs.lifecycle;
  tracer_ = obs.tracer;
  counters_.clear();
  if (obs.metrics != nullptr) {
    obs.metrics->BindCounters(&counters_, {},
                              {{"migrate.moves_started", &stats_.moves_started},
                               {"migrate.moves_completed", &stats_.moves_completed},
                               {"migrate.moves_aborted", &stats_.moves_aborted}});
  }
}

Status MigrationManager::Migrate(const ProcessId& pid, NodeId to_node) {
  if (moves_.contains(pid)) {
    return Status(StatusCode::kUnavailable, "migration already in flight");
  }
  auto location = net_->names().Locate(pid);
  if (!location.ok()) {
    return location.status();
  }
  if (*location == to_node) {
    return Status(StatusCode::kInvalidArgument, "process already on target node");
  }
  if (net_->kernel(to_node) == nullptr) {
    return Status(StatusCode::kNotFound, "no such destination node");
  }
  const int32_t from_segment = net_->SegmentOfNode(*location);
  const int32_t to_segment = net_->SegmentOfNode(to_node);
  if (from_segment < 0) {
    return Status(StatusCode::kNotFound, "process is not on a processing node");
  }
  if (net_->recovery(from_segment).IsRecovering(pid) ||
      net_->recovery(to_segment).IsRecovering(pid)) {
    return Status(StatusCode::kUnavailable, "process is mid-recovery");
  }
  // The move runs the recovery machinery at the destination, so it needs the
  // same database material recovery does.
  auto info = net_->storage(from_segment).Info(pid);
  if (!info.ok()) {
    return Status(StatusCode::kNotFound, "home recorder has no entry");
  }
  if (info->destroyed || !info->recoverable || info->program.empty()) {
    return Status(StatusCode::kInvalidArgument, "process is not migratable");
  }

  Move move;
  move.pid = pid;
  move.from_node = *location;
  move.to_node = to_node;
  move.from_segment = from_segment;
  move.to_segment = to_segment;
  move.round = next_round_++;
  ++stats_.moves_started;
  if (tracer_ != nullptr) {
    move.span_id = tracer_->BeginSpan(
        "migrate.move", "migrate", obs_track::kMigrate,
        {{"pid", ToString(pid)},
         {"from", std::to_string(move.from_node.value)},
         {"to", std::to_string(to_node.value)},
         {"round", std::to_string(move.round)}});
  }
  const uint64_t round = move.round;
  moves_[pid] = std::move(move);
  SendToKernel(*location,
               EncodeRecoveryTarget(KernelOp::kMigrateFreeze, {pid, round}));
  sim_->ScheduleAfter(options_.freeze_ack_timeout,
                      [this, pid, round] { OnFreezeTimeout(pid, round); });
  return Status::Ok();
}

bool MigrationManager::HandlePacket(const Packet& packet) {
  if (packet.header.dst_process != manager_pid_ ||
      PeekOp(packet.body) != KernelOp::kMigrateFreezeAck) {
    return false;
  }
  auto ack = DecodeMigrateFreezeAck(packet.body);
  if (ack.ok()) {
    OnFreezeAck(*ack);
  }
  return true;
}

void MigrationManager::ReclaimAnnex(size_t segment) {
  StableStorage& src = net_->storage(segment);
  for (const ProcessId& pid : src.AnnexedProcesses()) {
    // Prefer the live name-service location: after an A->B->C chain the
    // tombstone on A still points at B, but the messages belong wherever the
    // process lives *now*.  The tombstone is the fallback for names that were
    // evicted (e.g. the process since terminated — its log still wants the
    // frames for the durability oracle).
    NodeId destination;
    auto location = net_->names().Locate(pid);
    if (location.ok()) {
      destination = *location;
    } else {
      auto moved = src.MovedTo(pid);
      if (!moved.ok()) {
        continue;
      }
      destination = *moved;
    }
    const int32_t to_segment = net_->SegmentOfNode(destination);
    if (to_segment < 0 || static_cast<size_t>(to_segment) == segment) {
      // Same-segment tombstones cannot happen (only cross-segment moves drop
      // the source entry); skip rather than re-feed a moved_ pid into the
      // same annex forever.
      continue;
    }
    StableStorage& dst = net_->storage(to_segment);
    std::vector<LogEntry> entries = src.TakeAnnex(pid);
    for (LogEntry& entry : entries) {
      dst.AppendMessage(pid, entry.id, std::move(entry.packet));
    }
    ++stats_.annex_reclaims;
    if (lifecycle_ != nullptr) {
      lifecycle_->NoteFault("annex_reclaim", ToString(pid));
    }
    net_->recovery(to_segment).RecoverProcessOn(pid, destination);
  }
}

void MigrationManager::OnFreezeAck(const MigrateFreezeAck& ack) {
  auto it = moves_.find(ack.pid);
  if (it == moves_.end() || it->second.round != ack.migration_round ||
      it->second.phase != Phase::kAwaitFreezeAck) {
    return;  // Stale attempt.
  }
  if (!ack.ok) {
    ++stats_.freeze_nacks;
    // The kernel refused without freezing — nothing to unfreeze.
    Abort(ack.pid, "freeze refused by the source kernel", /*unfreeze=*/false);
    return;
  }
  Move& move = it->second;
  move.reads_done = ack.reads_done;
  move.phase = Phase::kAwaitCheckpoint;
  move.barrier_deadline = sim_->Now() + options_.checkpoint_poll_deadline;
  // The process is provably frozen from here: open the oracle's move window.
  // Reads may now happen only at the destination (replay re-reads).
  move.move_opened = true;
  if (lifecycle_ != nullptr) {
    lifecycle_->NoteMigrationStart(move.pid, move.from_node, move.to_node);
  }
  PollBarrier(move.pid, move.round);
}

void MigrationManager::PollBarrier(const ProcessId& pid, uint64_t round) {
  auto it = moves_.find(pid);
  if (it == moves_.end() || it->second.round != round ||
      it->second.phase != Phase::kAwaitCheckpoint) {
    return;
  }
  Move& move = it->second;
  // Source crashed under the frozen process: the recovery manager owns it
  // now, and its recreate-at-source is not part of this move.
  if (net_->recovery(move.from_segment).IsRecovering(pid)) {
    Abort(pid, "source entered recovery mid-move", /*unfreeze=*/false);
    return;
  }
  // The barrier checkpoint travels to the source segment's recorder while
  // the freeze ack travels here — different transport destinations, so only
  // the storage itself can confirm the checkpoint landed.  Without it the
  // destination would replay already-read entries.
  auto info = net_->storage(move.from_segment).Info(pid);
  const bool barrier_stored =
      info.ok() && info->has_checkpoint && info->checkpoint_reads >= move.reads_done;
  if (barrier_stored) {
    HandOff(pid);
    return;
  }
  if (sim_->Now() >= move.barrier_deadline) {
    ++stats_.barrier_timeouts;
    Abort(pid, "barrier checkpoint never landed", /*unfreeze=*/true);
    return;
  }
  sim_->ScheduleAfter(options_.checkpoint_poll_interval,
                      [this, pid, round] { PollBarrier(pid, round); });
}

void MigrationManager::HandOff(const ProcessId& pid) {
  Move& move = moves_[pid];
  // The whole hand-off happens at one virtual instant: database entry,
  // segment overlay, name service, eviction, and the replay kick-off are
  // atomic with respect to simulated traffic.
  if (move.from_segment != move.to_segment) {
    StableStorage& src = net_->storage(move.from_segment);
    auto blob = src.ExportEntry(pid);
    if (!blob.ok()) {
      Abort(pid, "export failed: " + blob.status().message(), /*unfreeze=*/true);
      return;
    }
    Status installed = net_->storage(move.to_segment).ImportEntry(*blob, move.to_node);
    if (!installed.ok()) {
      Abort(pid, "import failed: " + installed.message(), /*unfreeze=*/true);
      return;
    }
    src.DropEntry(pid, move.to_node);
  }
  net_->map().SetProcessHome(pid, static_cast<size_t>(move.to_segment));
  // New senders route to the destination from this instant; packets already
  // addressed to the old node chase the forwarding pointer the eviction
  // installs.
  net_->names().SetLocation(pid, move.to_node);
  SendToKernel(move.from_node,
               EncodeMigrateEvict({pid, move.round, move.to_node}));
  move.phase = Phase::kReplaying;
  if (tracer_ != nullptr) {
    tracer_->Instant("migrate.handoff", "migrate", obs_track::kMigrate,
                     {{"pid", ToString(pid)},
                      {"from_segment", std::to_string(move.from_segment)},
                      {"to_segment", std::to_string(move.to_segment)}});
  }
  net_->recovery(move.to_segment).RecoverProcessOn(pid, move.to_node);
}

void MigrationManager::OnRecoveryDone(const ProcessId& pid) {
  auto it = moves_.find(pid);
  if (it == moves_.end()) {
    return;  // Ordinary recovery, not a move.
  }
  Move& move = it->second;
  if (move.phase != Phase::kReplaying) {
    // A crash recovery raced the move before the hand-off; the process is
    // live again wherever recovery put it, and this move never happened.
    Abort(pid, "recovery completed mid-move", /*unfreeze=*/false);
    return;
  }
  const bool cross_segment = move.from_segment != move.to_segment;
  ++stats_.moves_completed;
  if (cross_segment) {
    ++stats_.cross_segment_moves;
  }
  if (lifecycle_ != nullptr) {
    // One synthetic message id per move keys the kMigrated stage in the
    // lifecycle table; the oracle closes the move window on it.
    CausalContext ctx;
    ctx.id = MessageId{manager_pid_, move.round};
    ctx.origin = net_->recorder(0).node();
    ctx.flags = kCausalControl;
    lifecycle_->ObserveMigrated(ctx, move.to_node, pid, move.from_segment,
                                move.to_segment);
  }
  if (tracer_ != nullptr && move.span_id != 0) {
    tracer_->EndSpan(move.span_id, "migrate.move", "migrate", obs_track::kMigrate,
                     {{"outcome", "completed"}});
  }
  PUB_LOG_DEBUG("migrate: %s live on node %u (round %llu)", ToString(pid).c_str(),
                move.to_node.value, static_cast<unsigned long long>(move.round));
  moves_.erase(it);
  if (move_done_) {
    move_done_(pid, true);
  }
}

void MigrationManager::OnFreezeTimeout(const ProcessId& pid, uint64_t round) {
  auto it = moves_.find(pid);
  if (it == moves_.end() || it->second.round != round ||
      it->second.phase != Phase::kAwaitFreezeAck) {
    return;
  }
  ++stats_.barrier_timeouts;
  // The ack may be lost with the freeze applied (source crashed after
  // freezing): send a start anyway — a no-op if the process is gone.
  Abort(pid, "freeze ack never arrived", /*unfreeze=*/true);
}

void MigrationManager::Abort(const ProcessId& pid, const std::string& reason,
                             bool unfreeze) {
  auto it = moves_.find(pid);
  if (it == moves_.end()) {
    return;
  }
  Move move = std::move(it->second);
  moves_.erase(it);
  ++stats_.moves_aborted;
  if (unfreeze) {
    SendToKernel(move.from_node,
                 EncodeRecoveryTarget(KernelOp::kStartProcess, {pid, move.round}));
  }
  if (move.move_opened && lifecycle_ != nullptr) {
    lifecycle_->NoteMigrationAborted(pid);
  }
  if (tracer_ != nullptr && move.span_id != 0) {
    tracer_->EndSpan(move.span_id, "migrate.move", "migrate", obs_track::kMigrate,
                     {{"outcome", "aborted"}, {"reason", reason}});
  }
  PUB_LOG_INFO("migrate: move of %s aborted (%s)", ToString(pid).c_str(),
               reason.c_str());
  if (move_done_) {
    move_done_(pid, false);
  }
}

void MigrationManager::SendToKernel(NodeId node, Bytes body) {
  // Mirrors the recovery manager's control sends: guaranteed control traffic
  // from the manager pid through segment 0's recorder endpoint; gateways
  // carry it to foreign segments and the acks find their way back the same
  // way.
  Packet packet;
  packet.header.id = MessageId{manager_pid_, ++send_seq_};
  packet.header.src_process = manager_pid_;
  packet.header.dst_process = ProcessId{node, NodeKernel::kKernelLocalId};
  packet.header.src_node = net_->recorder(0).node();
  packet.header.dst_node = node;
  packet.header.flags = kFlagGuaranteed | kFlagControl;
  packet.body = std::move(body);
  net_->recorder(0).endpoint().Send(std::move(packet));
}

}  // namespace publishing
