// The wiring surface of the observability subsystem.
//
// An Observability value is a set of optional sinks — a MetricsRegistry, a
// Tracer and a LifecycleTracker — handed to each instrumented component.
// The default-constructed value (all null) is the null object: nothing is
// bound or resolved, and uninstrumented runs stay bit-identical to the seed
// behaviour.
//
// Attach pattern: a component's SetObservability does all its registry work
// *once*.  Counters bind to the component's own `*Stats` fields
// (MetricsRegistry::BindCounter), so a count is written in one place, with
// no registry branch, and the registry reads it; the component holds the
// CounterBindings, and re-attaching (or detaching with a null registry)
// releases them first.  Gauges and histograms are resolved to cached
// Gauge*/Histogram* handles whose hot-path writes cost one null check.
// Components must not look instruments up per event.
//
// PublishingSystem::EnableObservability fans one Observability out to every
// layer: simulator, medium, transport endpoints, recorder, recovery manager,
// and the storage backend.

#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace publishing {

struct Observability {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  // The causal sink: per-message lifecycle tracking, and through its
  // attachments the invariant oracle and the flight recorder (lifecycle.h).
  LifecycleTracker* lifecycle = nullptr;

  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || lifecycle != nullptr;
  }
};

// RAII complete-span: opens at construction, emits on destruction.  A null
// tracer makes it a no-op.  For spans that cross simulator events, use
// Tracer::BeginSpan/EndSpan instead.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* category, uint64_t track)
      : tracer_(tracer), name_(name), category_(category), track_(track) {
    if (tracer_ != nullptr) {
      start_ = tracer_->now();
    }
  }

  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Complete(start_, name_, category_, track_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  uint64_t track_;
  SimTime start_ = 0;
};

}  // namespace publishing

#endif  // SRC_OBS_OBSERVABILITY_H_
