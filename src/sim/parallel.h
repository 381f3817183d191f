// Multi-domain sequential virtual-time core.
//
// A SimCore owns a set of *domains*, each a `Simulator` view with a private
// event heap (src/sim/event_queue.h).  Domain 0 is the control domain
// (supervisors, recovery/migration managers, test pokes); domains 1..D-1 are
// the partitioned workload (one per media segment in src/internet).  The
// core executes every domain's events on the calling thread in one fixed
// total order:
//
//   (when, domain-id, band, sequence)
//
// where band 0 = locally scheduled events ordered by the domain's own FIFO
// sequence number, and band 1 = cross-domain handoffs (ScheduleOnAfter)
// ordered by a core-wide handoff sequence assigned in execution order.  All
// domains share the core's single virtual clock, so every view's Now() is
// the time of the event executing (or the last RunUntil deadline), and no
// domain can schedule behind another.  Same seed, same bytes out
// (DESIGN.md §15).

#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace publishing {

class SimCore {
 public:
  // Engine-level counters for benches and tests.
  struct EngineStats {
    uint64_t events_executed = 0;
    uint64_t handoffs = 0;  // cross-domain events scheduled
  };

  explicit SimCore(Simulator* root);

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  // Creates a new domain (a Simulator view owned by this core).  The returned
  // pointer stays valid until the root Simulator is destroyed.
  Simulator* AddDomain();

  size_t domain_count() const { return domains_.size(); }
  Simulator* domain(size_t i) { return domains_[i]; }

  // Engine entry points (root Simulator forwards here).
  bool Step();
  void Run();
  void RunUntil(SimTime deadline);

  const EngineStats& engine_stats() const { return stats_; }

  // Metrics plumbing (root Simulator forwards here).
  void SetObservability(const Observability& obs);

  // Sets sim.queue_depth and the engine.* gauges from the current engine
  // and queue state (run boundaries, Step, and the telemetry sampler's
  // pre-scrape flush).
  void FlushMetrics();

 private:
  friend class Simulator;

  // Cross-domain scheduling (via Simulator::ScheduleOnAfter): inserts into
  // `target`'s queue in band 1 with the next handoff sequence.
  void ScheduleCross(Simulator* target, SimDuration delay, SimCallback action);

  // Executes the global (when, domain, band, seq) order.  Runs events with
  // when <= deadline.
  void SequentialRun(SimTime deadline, bool until_empty);
  // Fast path for a single-domain core (the original engine loop).
  void SingleDomainRun(SimTime deadline, bool until_empty);

  // Pops and runs the next event of `dom`, advancing the clock.
  void ExecuteNext(Simulator* dom);

  // Returns the id of the domain holding the globally next event, or
  // UINT32_MAX if all queues are empty.  Key: (when, domain-id).
  uint32_t NextDomain() const;

  // Binds `dom`'s event tallies to the attached registry's sim.events_*
  // counters (releases them when detached).
  void BindTallies(Simulator* dom);

  Simulator* root_;  // == domains_[0]
  std::vector<Simulator*> domains_;
  std::vector<std::unique_ptr<Simulator>> owned_domains_;

  SimTime now_ = 0;           // the single virtual clock every view reads
  uint64_t handoff_seq_ = 0;  // band-1 order, assigned in execution order

  EngineStats stats_;

  Gauge* queue_depth_ = nullptr;  // sim.queue_depth, all domains.

  // Engine introspection gauges (engine.*): the EngineStats fields plus
  // per-domain execution/queue-depth series, refreshed at every flush point.
  MetricsRegistry* metrics_ = nullptr;
  Gauge* eng_events_ = nullptr;
  Gauge* eng_handoffs_ = nullptr;
  std::vector<Gauge*> eng_domain_events_;
  std::vector<Gauge*> eng_domain_depth_;
};

}  // namespace publishing

#endif  // SRC_SIM_PARALLEL_H_
