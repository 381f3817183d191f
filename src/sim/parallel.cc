#include "src/sim/parallel.h"

#include <cassert>
#include <string>

namespace publishing {

namespace {

constexpr uint32_t kNoDomain = UINT32_MAX;

}  // namespace

// ---- Simulator: the thin domain-view layer ----

Simulator::Simulator() : core_storage_(std::make_unique<SimCore>(this)) {
  core_ = core_storage_.get();
  clock_ = &core_->now_;
}

Simulator::Simulator(SimCore* core, uint32_t domain_id)
    : core_(core), clock_(&core->now_), domain_(domain_id) {}

Simulator::~Simulator() = default;

Simulator* Simulator::AddDomain() {
  assert(is_root() && "domains are created through the root Simulator");
  return core_->AddDomain();
}

void Simulator::SetObservability(const Observability& obs) {
  assert(is_root() && "event-loop instruments attach to the root domain");
  core_->SetObservability(obs);
}

void Simulator::FlushObsMetrics() {
  assert(is_root() && "metric flushes drive the whole core");
  core_->FlushMetrics();
}

void Simulator::ScheduleOnAfter(Simulator* target, SimDuration delay, Action action) {
  core_->ScheduleCross(target, delay, std::move(action));
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

SimCore::SimCore(Simulator* root) : root_(root) { domains_.push_back(root); }

Simulator* SimCore::AddDomain() {
  const uint32_t id = static_cast<uint32_t>(domains_.size());
  owned_domains_.emplace_back(new Simulator(this, id));
  Simulator* dom = owned_domains_.back().get();
  domains_.push_back(dom);
  BindTallies(dom);
  return dom;
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
    eng_events_ = obs.metrics->GetGauge("engine.events_executed");
    eng_handoffs_ = obs.metrics->GetGauge("engine.handoffs");
  } else {
    queue_depth_ = nullptr;
    eng_events_ = nullptr;
    eng_handoffs_ = nullptr;
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

void SimCore::FlushMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  eng_events_->Set(static_cast<double>(stats_.events_executed));
  eng_handoffs_->Set(static_cast<double>(stats_.handoffs));
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
    eng_domain_events_[d]->Set(static_cast<double>(domains_[d]->tallies_.fired));
    eng_domain_depth_[d]->Set(static_cast<double>(domains_[d]->queue_.size()));
    pending += domains_[d]->queue_.size();
  }
  queue_depth_->Set(static_cast<double>(pending));
}

void SimCore::ScheduleCross(Simulator* target, SimDuration delay, SimCallback action) {
  assert(target != nullptr && target->core_ == this &&
         "cross-domain scheduling stays within one core");
  assert(delay >= 0 && "cannot schedule into the past");
  target->queue_.Insert(now_ + delay, kHandoffSeqBit | ++handoff_seq_, std::move(action));
  ++target->tallies_.scheduled;
  ++stats_.handoffs;
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

// Shared by the single-domain fast path, the merged loop, and Step().
inline void SimCore::ExecuteNext(Simulator* dom) {
  SimTime when;
  SimCallback action = dom->queue_.PopTop(&when);
  assert(when >= now_);
  now_ = when;
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
  FlushMetrics();
  return true;
}

void SimCore::Run() {
  if (domains_.size() == 1) {
    SingleDomainRun(0, /*until_empty=*/true);
  } else {
    SequentialRun(0, /*until_empty=*/true);
  }
  FlushMetrics();
}

void SimCore::RunUntil(SimTime deadline) {
  if (domains_.size() == 1) {
    SingleDomainRun(deadline, /*until_empty=*/false);
  } else {
    SequentialRun(deadline, /*until_empty=*/false);
  }
  FlushMetrics();
}

void SimCore::SingleDomainRun(SimTime deadline, bool until_empty) {
  EventHeap& queue = root_->queue_;
  while (!queue.empty() && (until_empty || queue.top_when() <= deadline)) {
    ExecuteNext(root_);
  }
  if (!until_empty && now_ < deadline) {
    now_ = deadline;
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
  if (!until_empty && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace publishing
