#include "src/sim/parallel.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <string>

namespace publishing {

namespace {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
constexpr uint32_t kNoDomain = UINT32_MAX;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

thread_local SimCore::WorkerCtx* SimCore::tls_ctx_ = nullptr;

// ---- Simulator: the thin domain-view layer ----

Simulator::Simulator() : core_storage_(std::make_unique<SimCore>(this)) {
  core_ = core_storage_.get();
}

Simulator::Simulator(SimCore* core, uint32_t domain_id)
    : core_(core), domain_(domain_id) {}

Simulator::~Simulator() = default;

Simulator* Simulator::AddDomain() {
  assert(is_root() && "domains are created through the root Simulator");
  return core_->AddDomain();
}

void Simulator::SetWorkers(size_t workers) { core_->SetWorkers(workers); }
size_t Simulator::workers() const { return core_->workers(); }
void Simulator::SetLookahead(SimDuration lookahead) { core_->SetLookahead(lookahead); }

void Simulator::SetObservability(const Observability& obs) {
  assert(is_root() && "event-loop instruments attach to the root domain");
  core_->SetObservability(obs);
}

void Simulator::FlushObsMetrics() {
  assert(is_root() && "metric flushes drive the whole core");
  core_->FlushMetrics();
}

void Simulator::ScheduleOnAfter(Simulator* target, SimDuration delay, Action action) {
  core_->ScheduleCross(this, target, delay, std::move(action));
}

bool Simulator::Step() {
  assert(is_root() && "only the root domain drives the engine");
  return core_->Step();
}

void Simulator::Run() {
  assert(is_root() && "only the root domain drives the engine");
  core_->Run();
}

void Simulator::RunUntil(SimTime deadline) {
  assert(is_root() && "only the root domain drives the engine");
  core_->RunUntil(deadline);
}

// ---- SimCore ----

SimCore::SimCore(Simulator* root) : root_(root) {
  domains_.push_back(root);
  obs_buf_.resize(1);
}

SimCore::~SimCore() {
  assert(!workers_running_ && "core destroyed mid-run");
}

Simulator* SimCore::AddDomain() {
  assert(!workers_running_);
  const uint32_t id = static_cast<uint32_t>(domains_.size());
  owned_domains_.emplace_back(new Simulator(this, id));
  Simulator* dom = owned_domains_.back().get();
  dom->now_ = root_->now_;
  domains_.push_back(dom);
  obs_buf_.resize(domains_.size());
  BindTallies(dom);
  return dom;
}

void SimCore::SetWorkers(size_t workers) {
  assert(!workers_running_);
  workers_ = workers == 0 ? 1 : workers;
}

void SimCore::SetLookahead(SimDuration lookahead) {
  assert(lookahead >= 0);
  lookahead_ = lookahead;
}

void SimCore::SetObservability(const Observability& obs) {
  metrics_ = obs.metrics;
  eng_domain_events_.clear();
  eng_domain_depth_.clear();
  for (Simulator* dom : domains_) {
    BindTallies(dom);
  }
  if (obs.metrics != nullptr) {
    queue_depth_ = obs.metrics->GetGauge("sim.queue_depth");
    // Engine introspection: deterministic EngineStats fields as gauges.  The
    // wall-clock fields (run_wall_ns, busy, stall) deliberately stay out —
    // registry exports are byte-diffed across same-seed runs.
    eng_events_ = obs.metrics->GetGauge("engine.events_executed");
    eng_handoffs_ = obs.metrics->GetGauge("engine.handoffs");
    eng_spills_ = obs.metrics->GetGauge("engine.handoff_ring_spills");
    eng_windows_ = obs.metrics->GetGauge("engine.windows");
    eng_window_events_ = obs.metrics->GetGauge("engine.window_events");
    eng_parallel_runs_ = obs.metrics->GetGauge("engine.parallel_runs");
  } else {
    queue_depth_ = nullptr;
    eng_events_ = nullptr;
    eng_handoffs_ = nullptr;
    eng_spills_ = nullptr;
    eng_windows_ = nullptr;
    eng_window_events_ = nullptr;
    eng_parallel_runs_ = nullptr;
  }
}

void SimCore::BindTallies(Simulator* dom) {
  dom->tally_counters_.clear();
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->BindCounters(&dom->tally_counters_, {},
                         {{"sim.events_scheduled", &dom->tallies_.scheduled},
                          {"sim.events_fired", &dom->tallies_.fired},
                          {"sim.events_cancelled", &dom->tallies_.cancelled}});
}

void SimCore::PublishMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  eng_events_->Set(static_cast<double>(stats_.events_executed));
  eng_handoffs_->Set(static_cast<double>(stats_.handoffs));
  eng_spills_->Set(static_cast<double>(stats_.handoff_ring_spills));
  eng_windows_->Set(static_cast<double>(stats_.windows));
  eng_window_events_->Set(static_cast<double>(stats_.window_events));
  eng_parallel_runs_->Set(static_cast<double>(stats_.parallel_runs));
  if (eng_domain_events_.size() != domains_.size()) {
    eng_domain_events_.resize(domains_.size());
    eng_domain_depth_.resize(domains_.size());
    for (size_t d = 0; d < domains_.size(); ++d) {
      const MetricLabels labels = {{"domain", std::to_string(d)}};
      eng_domain_events_[d] = metrics_->GetGauge("engine.domain_events", labels);
      eng_domain_depth_[d] = metrics_->GetGauge("engine.domain_queue_depth", labels);
    }
  }
  size_t pending = 0;
  for (size_t d = 0; d < domains_.size(); ++d) {
    eng_domain_events_[d]->Set(static_cast<double>(domains_[d]->exec_count_));
    eng_domain_depth_[d]->Set(static_cast<double>(domains_[d]->queue_.size()));
    pending += domains_[d]->queue_.size();
  }
  queue_depth_->Set(static_cast<double>(pending));
}

bool SimCore::InWorkerContext() { return tls_ctx_ != nullptr; }

SimTime SimCore::WorkerNow() {
  assert(tls_ctx_ != nullptr);
  return tls_ctx_->now;
}

void SimCore::CaptureObs(const SimObsRecord& rec) {
  assert(tls_ctx_ != nullptr);
  tls_ctx_->obs->push_back(rec);
}

void SimCore::ScheduleCross(Simulator* source, Simulator* target, SimDuration delay,
                            SimCallback action) {
  assert(target != nullptr && target->core_ == this &&
         "cross-domain scheduling stays within one core");
  assert(delay >= lookahead_ && "handoff latency below the configured lookahead");
  WorkerCtx* ctx = tls_ctx_;
  if (ctx != nullptr && ctx->core == this) {
    assert(ctx->domain == source->domain_ &&
           "cross-domain schedule from a foreign domain's event");
    HandoffRec rec;
    rec.target = target;
    rec.when = ctx->now + delay;
    rec.action = std::move(action);
    rec.sender_when = ctx->now;
    rec.sender_domain = ctx->domain;
    rec.sender_exec = ctx->exec_idx;
    rec.sender_call = ctx->call_idx++;
    if (!ctx->ring->TryPush(std::move(rec))) {
      // Full ring: never block (the coordinator draining this ring is also
      // the thread waiting for us at the barrier) — spill locally instead.
      ctx->spill->push_back(std::move(rec));
    }
    return;
  }
  // Serialized context: sequential engines, control batches, or the idle main
  // thread between runs.  Insert directly; the handoff sequence is assigned
  // here in execution order — exactly the order the barrier drain assigns it
  // in parallel mode, so the key is identical in both engines.
  HandoffRec rec;
  rec.target = target;
  rec.when = source->now_ + delay;
  rec.action = std::move(action);
  DeliverHandoff(&rec);
  ++stats_.handoffs;
}

void SimCore::DeliverHandoff(HandoffRec* rec) {
  Simulator* dom = rec->target;
  dom->queue_.Insert(rec->when, kHandoffSeqBit | ++handoff_seq_, std::move(rec->action));
  ++dom->tallies_.scheduled;
}

bool SimCore::HandoffRankLess(const HandoffRec& a, const HandoffRec& b) {
  if (a.sender_when != b.sender_when) {
    return a.sender_when < b.sender_when;
  }
  if (a.sender_domain != b.sender_domain) {
    return a.sender_domain < b.sender_domain;
  }
  if (a.sender_exec != b.sender_exec) {
    return a.sender_exec < b.sender_exec;
  }
  return a.sender_call < b.sender_call;
}

uint32_t SimCore::NextDomain() const {
  uint32_t best = kNoDomain;
  SimTime best_when = 0;
  for (uint32_t d = 0; d < domains_.size(); ++d) {
    const Simulator* dom = domains_[d];
    if (dom->queue_.empty()) {
      continue;
    }
    const SimTime when = dom->queue_.top_when();
    if (best == kNoDomain || when < best_when) {
      best = d;
      best_when = when;
    }
  }
  return best;
}

void SimCore::AdvanceClocks(SimTime t) {
  for (Simulator* dom : domains_) {
    if (dom->now_ < t) {
      dom->now_ = t;
    }
  }
}

// Pops and runs the next event of `dom`, maintaining the global clock, the
// domain execution rank (the handoff sender key), and the instruments.
// Shared by the single-domain fast path, the sequential merged engine, and
// control batches.
inline void SimCore::ExecuteNext(Simulator* dom) {
  SimTime when;
  // A control event may read other domains' state (clocks included); bring
  // every clock up to date first so both engines see identical values.
  if (dom == root_ && domains_.size() > 1) {
    AdvanceClocks(dom->queue_.top_when());
  }
  SimCallback action = dom->queue_.PopTop(&when);
  assert(when >= dom->now_);
  dom->now_ = when;
  root_->now_ = when;  // the root clock is the global clock
  ++dom->exec_count_;
  ++stats_.events_executed;
  ++dom->tallies_.fired;
  action();
}

bool SimCore::Step() {
  const uint32_t d = NextDomain();
  if (d == kNoDomain) {
    return false;
  }
  ExecuteNext(domains_[d]);
  PublishMetrics();
  return true;
}

void SimCore::Run() {
  const auto t0 = std::chrono::steady_clock::now();
  if (domains_.size() == 1) {
    SingleDomainRun(0, /*until_empty=*/true);
  } else if (std::min(workers_, domains_.size() - 1) <= 1) {
    SequentialRun(0, /*until_empty=*/true);
  } else {
    ParallelRun(kMaxTime, /*until_empty=*/true);
  }
  stats_.run_wall_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
  PublishMetrics();  // single-domain runs have no other flush point
}

void SimCore::RunUntil(SimTime deadline) {
  const auto t0 = std::chrono::steady_clock::now();
  if (domains_.size() == 1) {
    SingleDomainRun(deadline, /*until_empty=*/false);
  } else if (std::min(workers_, domains_.size() - 1) <= 1) {
    SequentialRun(deadline, /*until_empty=*/false);
  } else {
    ParallelRun(deadline, /*until_empty=*/false);
  }
  stats_.run_wall_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
  PublishMetrics();  // single-domain runs have no other flush point
}

void SimCore::SingleDomainRun(SimTime deadline, bool until_empty) {
  EventHeap& queue = root_->queue_;
  while (!queue.empty() && (until_empty || queue.top_when() <= deadline)) {
    ExecuteNext(root_);
  }
  if (!until_empty && root_->now_ < deadline) {
    root_->now_ = deadline;
  }
}

void SimCore::SequentialRun(SimTime deadline, bool until_empty) {
  for (;;) {
    const uint32_t d = NextDomain();
    if (d == kNoDomain) {
      break;
    }
    Simulator* dom = domains_[d];
    if (!until_empty && dom->queue_.top_when() > deadline) {
      break;
    }
    ExecuteNext(dom);
  }
  if (!until_empty) {
    AdvanceClocks(deadline);
  }
  PublishMetrics();
}

void SimCore::RunControlBatch(SimTime tc) {
  AdvanceClocks(tc);
  EventHeap& queue = root_->queue_;
  while (!queue.empty() && queue.top_when() == tc) {
    ExecuteNext(root_);
  }
  PublishMetrics();
}

void SimCore::ParallelRun(SimTime deadline, bool until_empty) {
  StartWorkers();
  ++stats_.parallel_runs;
  for (;;) {
    const SimTime tc = root_->queue_.empty() ? kMaxTime : root_->queue_.top_when();
    SimTime tseg = kMaxTime;
    for (size_t d = 1; d < domains_.size(); ++d) {
      const Simulator* dom = domains_[d];
      if (!dom->queue_.empty() && dom->queue_.top_when() < tseg) {
        tseg = dom->queue_.top_when();
      }
    }
    const SimTime tmin = std::min(tc, tseg);
    if (tmin == kMaxTime || (!until_empty && tmin > deadline)) {
      break;
    }
    if (tc <= tseg) {
      // Control executes serially, before any segment event at the same
      // instant — the same (when, domain) order the sequential engine uses.
      RunControlBatch(tc);
      continue;
    }
    // Safe window [tseg, wend): no domain can receive a cross-domain event
    // below tseg + lookahead, and control must not be overtaken.  A zero
    // lookahead degrades to single-instant windows (correct, just serial-ish).
    SimTime wend = tseg + (lookahead_ > 0 ? lookahead_ : 1);
    if (tc < wend) {
      wend = tc;
    }
    if (!until_empty && deadline + 1 < wend) {
      wend = deadline + 1;
    }
    window_end_ = wend;
    done_count_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    const uint32_t active = static_cast<uint32_t>(slots_.size());
    // Wait for the window, draining handoff rings concurrently so a ring
    // never becomes a memory sink during event-dense windows.
    const auto stall0 = std::chrono::steady_clock::now();
    int spins = 0;
    while (done_count_.load(std::memory_order_acquire) < active) {
      for (WorkerSlot& slot : slots_) {
        slot.ring->DrainInto(&staging_);
      }
      if (++spins > 256) {
        std::this_thread::yield();
        spins = 0;
      } else {
        CpuRelax();
      }
    }
    stats_.barrier_stall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - stall0)
            .count());
    DrainHandoffs();
    FlushObservations();
    // The root clock is the global clock: the latest executed event so far.
    SimTime max_now = root_->now_;
    for (size_t d = 1; d < domains_.size(); ++d) {
      max_now = std::max(max_now, domains_[d]->now_);
    }
    root_->now_ = max_now;
    ++stats_.windows;
  }
  StopWorkers();
  if (!until_empty) {
    AdvanceClocks(deadline);
  }
  PublishMetrics();
}

void SimCore::DrainHandoffs() {
  for (WorkerSlot& slot : slots_) {
    slot.ring->DrainInto(&staging_);
    if (!slot.spill.empty()) {
      slot.spills += slot.spill.size();
      for (HandoffRec& rec : slot.spill) {
        staging_.push_back(std::move(rec));
      }
      slot.spill.clear();
    }
  }
  if (staging_.empty()) {
    return;
  }
  // Restore the deterministic global handoff order (sender execution rank),
  // then assign handoff sequence numbers in that order — identical to the
  // order the sequential engine assigns them in.
  std::sort(staging_.begin(), staging_.end(), HandoffRankLess);
  for (HandoffRec& rec : staging_) {
    assert(rec.when >= window_end_ && "handoff landed inside its own window");
    DeliverHandoff(&rec);
  }
  stats_.handoffs += staging_.size();
  staging_.clear();
}

void SimCore::FlushObservations() {
  // K-way merge of the per-domain capture buffers by (time, domain,
  // position): each buffer is already in execution order, so this replays
  // observations in exactly the sequential engine's call order.
  for (;;) {
    uint32_t best = kNoDomain;
    SimTime best_time = 0;
    for (uint32_t d = 0; d < obs_buf_.size(); ++d) {
      std::vector<SimObsRecord>& buf = obs_buf_[d];
      if (obs_pos_.size() <= d) {
        obs_pos_.resize(obs_buf_.size(), 0);
      }
      if (obs_pos_[d] >= buf.size()) {
        continue;
      }
      const SimTime t = buf[obs_pos_[d]].time;
      if (best == kNoDomain || t < best_time) {
        best = d;
        best_time = t;
      }
    }
    if (best == kNoDomain) {
      break;
    }
    const SimObsRecord& rec = obs_buf_[best][obs_pos_[best]++];
    rec.apply(rec);
  }
  for (std::vector<SimObsRecord>& buf : obs_buf_) {
    buf.clear();
  }
  std::fill(obs_pos_.begin(), obs_pos_.end(), 0);
}

void SimCore::StartWorkers() {
  if (workers_running_) {
    return;
  }
  const size_t segments = domains_.size() - 1;
  const size_t count = std::min(workers_, segments);
  assert(count >= 2);
  slots_.clear();
  slots_.resize(count);
  for (size_t w = 0; w < count; ++w) {
    slots_[w].ring = std::make_unique<SpscRing<HandoffRec>>(ring_capacity_);
  }
  for (size_t d = 1; d < domains_.size(); ++d) {
    slots_[(d - 1) % count].domains.push_back(static_cast<uint32_t>(d));
  }
  shutdown_.store(false, std::memory_order_relaxed);
  done_count_.store(0, std::memory_order_relaxed);
  epoch_.store(0, std::memory_order_release);
  for (WorkerSlot& slot : slots_) {
    slot.thread = std::thread(&SimCore::WorkerMain, this, &slot);
  }
  workers_running_ = true;
}

void SimCore::StopWorkers() {
  if (!workers_running_) {
    return;
  }
  shutdown_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  for (WorkerSlot& slot : slots_) {
    slot.thread.join();
    stats_.events_executed += slot.executed;
    stats_.window_events += slot.executed;
    stats_.handoff_ring_spills += slot.spills;
    stats_.worker_busy_ns += slot.busy_ns;
  }
  workers_running_ = false;
}

void SimCore::WorkerMain(WorkerSlot* slot) {
  uint64_t last_epoch = 0;
  for (;;) {
    uint64_t epoch;
    int spins = 0;
    while ((epoch = epoch_.load(std::memory_order_acquire)) == last_epoch) {
      if (++spins > 4096) {
        std::this_thread::yield();
        spins = 0;
      } else {
        CpuRelax();
      }
    }
    last_epoch = epoch;
    if (shutdown_.load(std::memory_order_relaxed)) {
      return;
    }
    RunWindow(slot, window_end_);
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

void SimCore::RunWindow(WorkerSlot* slot, SimTime window_end) {
  const auto busy0 = std::chrono::steady_clock::now();
  WorkerCtx ctx;
  ctx.core = this;
  ctx.ring = slot->ring.get();
  ctx.spill = &slot->spill;
  tls_ctx_ = &ctx;
  for (const uint32_t d : slot->domains) {
    Simulator* dom = domains_[d];
    EventHeap& queue = dom->queue_;
    if (queue.empty() || queue.top_when() >= window_end) {
      continue;
    }
    ctx.domain = d;
    ctx.obs = &obs_buf_[d];
    uint64_t exec = dom->exec_count_;
    uint64_t fired = 0;
    while (!queue.empty() && queue.top_when() < window_end) {
      SimTime when;
      SimCallback action = queue.PopTop(&when);
      dom->now_ = when;
      ctx.now = when;
      ctx.exec_idx = ++exec;
      ctx.call_idx = 0;
      ++fired;
      action();
    }
    dom->exec_count_ = exec;
    dom->tallies_.fired += fired;
    slot->executed += fired;
  }
  tls_ctx_ = nullptr;
  slot->busy_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - busy0)
          .count());
}

}  // namespace publishing
