// Multi-worker virtual-time core: conservative-lookahead parallel
// discrete-event execution that is bit-identical to the sequential engine.
//
// A SimCore owns a set of *domains*, each a `Simulator` view with a private
// event heap (src/sim/event_queue.h).  Domain 0 is the control domain
// (supervisors, recovery/migration managers, test pokes) and always executes
// serially with every worker quiesced; domains 1..D-1 are the partitioned
// workload (one per media segment in src/internet) and may execute on worker
// threads.  The engine advances in *safe windows*: with L = the configured
// lookahead (the minimum cross-domain handoff latency, i.e. gateway
// store-and-forward + interpacket delay), every event in [t, t+L) can only
// influence other domains at times >= t+L, so all domains may execute that
// window concurrently without ever receiving an event in their past.
//
// Execution order is a fixed total order, independent of worker count:
//
//   (when, domain-id, band, sequence)
//
// where band 0 = locally scheduled events ordered by the domain's own FIFO
// sequence number, and band 1 = cross-domain handoffs ordered by a global
// handoff sequence assigned in sender-execution-rank order
// (sender-when, sender-domain, sender-event-index, call-index).  Both
// components are mode-independent: local schedules replay identically by
// induction, and the handoff rank is derived from the sender's position in
// the same total order.  The sequential engine (workers=1, the `partition=1`
// degenerate path) executes this order directly; the parallel engine executes
// windows concurrently and restores the order at each window barrier by
// draining the per-worker SPSC handoff rings (src/sim/spsc_ring.h) into a
// rank-sorted staging buffer, and by replaying captured observability records
// (src/sim/obs_capture.h) in (time, domain, position) order.  Same seed, same
// bytes out — parallelism is purely a wall-clock optimization (DESIGN.md §15).

#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/obs_capture.h"
#include "src/sim/simulator.h"
#include "src/sim/spsc_ring.h"

namespace publishing {

class SimCore {
 public:
  // Engine-level counters for benches and tests.  `run_wall_ns` measures only
  // time inside Run/RunUntil (excluding setup/JSON), which is what the
  // worker-sweep speedup gates compare.
  struct EngineStats {
    uint64_t events_executed = 0;
    uint64_t handoffs = 0;            // cross-domain events delivered
    uint64_t handoff_ring_spills = 0; // handoffs that overflowed an SPSC ring
    uint64_t windows = 0;             // parallel safe windows executed
    uint64_t window_events = 0;       // events executed inside those windows
    uint64_t parallel_runs = 0;       // Run/RunUntil calls that used workers
    uint64_t run_wall_ns = 0;
    // Wall-clock occupancy split (parallel runs only, never byte-diffed):
    // worker time inside RunWindow vs coordinator time spinning at barriers.
    uint64_t worker_busy_ns = 0;
    uint64_t barrier_stall_ns = 0;
  };

  explicit SimCore(Simulator* root);
  ~SimCore();

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  // Creates a new domain (a Simulator view owned by this core).  The returned
  // pointer stays valid until the root Simulator is destroyed.
  Simulator* AddDomain();

  size_t domain_count() const { return domains_.size(); }
  Simulator* domain(size_t i) { return domains_[i]; }

  // Number of worker threads the next Run/RunUntil may use.  1 (default)
  // selects the sequential engine; values above the number of non-control
  // domains are clamped.
  void SetWorkers(size_t workers);
  size_t workers() const { return workers_; }

  // Conservative lookahead L: every cross-domain handoff must be scheduled at
  // least this far into the future.  Safe windows never span more than L.
  void SetLookahead(SimDuration lookahead);
  SimDuration lookahead() const { return lookahead_; }

  // Capacity (rounded up to a power of two) of each worker's handoff ring.
  // Overflow spills to a worker-local vector — back-pressure never blocks.
  // Test knob; applies when workers start.
  void SetHandoffRingCapacity(size_t capacity) { ring_capacity_ = capacity; }

  // Cross-domain scheduling (via Simulator::ScheduleOnAfter).  In worker
  // context the record is buffered and delivered at the window barrier; in
  // serialized context it is inserted directly.  Both paths assign the same
  // deterministic handoff sequence.
  void ScheduleCross(Simulator* source, Simulator* target, SimDuration delay,
                     SimCallback action);

  // Deferred-observation capture.  InWorkerContext() is true only on a worker
  // thread inside a safe window; hooks then pack their arguments into a
  // record (stamped with WorkerNow()) and hand it to CaptureObs instead of
  // calling the shared sink.
  static bool InWorkerContext();
  static SimTime WorkerNow();
  static void CaptureObs(const SimObsRecord& rec);

  // Engine entry points (root Simulator forwards here).
  bool Step();
  void Run();
  void RunUntil(SimTime deadline);

  const EngineStats& engine_stats() const { return stats_; }

  // Metrics plumbing (root Simulator forwards here).
  void SetObservability(const Observability& obs);

  // Sets sim.queue_depth and the engine.* gauges now.  Safe only from
  // serialized context (between runs, or a control-domain event) — the
  // telemetry sampler's pre-scrape flush point.
  void FlushMetrics() { PublishMetrics(); }

 private:
  friend class Simulator;

  struct HandoffRec {
    Simulator* target = nullptr;
    SimTime when = 0;  // arrival time: sender_when + delay
    SimCallback action;
    // Sender execution rank — the deterministic global handoff order.
    SimTime sender_when = 0;
    uint32_t sender_domain = 0;
    uint64_t sender_exec = 0;  // sending event's index within its domain
    uint32_t sender_call = 0;  // nth cross-domain call within that event
  };

  struct WorkerCtx {
    SimCore* core = nullptr;
    uint32_t domain = 0;
    SimTime now = 0;
    uint64_t exec_idx = 0;
    uint32_t call_idx = 0;
    SpscRing<HandoffRec>* ring = nullptr;
    std::vector<HandoffRec>* spill = nullptr;
    std::vector<SimObsRecord>* obs = nullptr;
  };

  struct WorkerSlot {
    std::vector<uint32_t> domains;  // owned domain ids, ascending
    std::unique_ptr<SpscRing<HandoffRec>> ring;
    std::vector<HandoffRec> spill;
    std::thread thread;
    uint64_t executed = 0;
    uint64_t spills = 0;
    uint64_t busy_ns = 0;  // wall time inside RunWindow (worker-local)
  };

  static bool HandoffRankLess(const HandoffRec& a, const HandoffRec& b);

  // Sequential engine: executes the global (when, domain, band, seq) order
  // directly on the calling thread.  Runs events with when <= deadline.
  void SequentialRun(SimTime deadline, bool until_empty);
  // Fast path for a single-domain core (the original engine loop).
  void SingleDomainRun(SimTime deadline, bool until_empty);
  // Parallel engine: safe windows on worker threads, control serialized.
  void ParallelRun(SimTime deadline, bool until_empty);

  void StartWorkers();
  void StopWorkers();
  void WorkerMain(WorkerSlot* slot);
  void RunWindow(WorkerSlot* slot, SimTime window_end);

  // Executes every control-domain event at exactly time `tc` (all workers
  // quiesced).  Advances every domain clock to `tc` first so shared-state
  // reads from control code see the same clocks in both engines.
  void RunControlBatch(SimTime tc);

  // Pops and runs the next event of `dom` (clocks, execution rank,
  // instruments); shared by every serialized execution path.
  void ExecuteNext(Simulator* dom);

  // Inserts a handoff into its target queue with the next handoff sequence.
  void DeliverHandoff(HandoffRec* rec);
  // Barrier step: drain rings + spills, rank-sort, deliver in order.
  void DrainHandoffs();
  // Replays captured observability records in (time, domain, position) order.
  void FlushObservations();

  // Advances every domain (and the global clock) to `t` if behind.
  void AdvanceClocks(SimTime t);

  // Returns the id of the domain holding the globally next event, or
  // UINT32_MAX if all queues are empty.  Key: (when, domain-id).
  uint32_t NextDomain() const;

  // Binds `dom`'s event tallies to the attached registry's sim.events_*
  // counters (releases them when detached).
  void BindTallies(Simulator* dom);
  // Sets the attached gauges from the current engine and queue state.
  void PublishMetrics();

  Simulator* root_;  // == domains_[0]
  std::vector<Simulator*> domains_;
  std::vector<std::unique_ptr<Simulator>> owned_domains_;

  size_t workers_ = 1;
  SimDuration lookahead_ = 0;
  size_t ring_capacity_ = 8192;

  uint64_t handoff_seq_ = 0;  // global deterministic handoff order
  std::vector<HandoffRec> staging_;
  std::vector<std::vector<SimObsRecord>> obs_buf_;  // per domain
  std::vector<size_t> obs_pos_;                     // merge cursors

  // Window barrier (spin-based: windows are short and workers are pinned to
  // the run, so parking/unparking through the kernel would dominate).
  std::vector<WorkerSlot> slots_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> done_count_{0};
  std::atomic<bool> shutdown_{false};
  SimTime window_end_ = 0;  // written before the epoch bump that publishes it
  bool workers_running_ = false;

  EngineStats stats_;

  Gauge* queue_depth_ = nullptr;  // sim.queue_depth, all domains.

  // Engine introspection gauges (engine.*): absolute values of the
  // deterministic EngineStats fields plus per-domain execution/queue-depth
  // series, refreshed at every flush point.  Wall-clock fields stay out of
  // the registry so byte-diffed metric exports remain run-invariant.
  MetricsRegistry* metrics_ = nullptr;
  Gauge* eng_events_ = nullptr;
  Gauge* eng_handoffs_ = nullptr;
  Gauge* eng_spills_ = nullptr;
  Gauge* eng_windows_ = nullptr;
  Gauge* eng_window_events_ = nullptr;
  Gauge* eng_parallel_runs_ = nullptr;
  std::vector<Gauge*> eng_domain_events_;
  std::vector<Gauge*> eng_domain_depth_;

  static thread_local WorkerCtx* tls_ctx_;
};

}  // namespace publishing

#endif  // SRC_SIM_PARALLEL_H_
