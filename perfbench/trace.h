// Wall-clock span accounting for the traced benchmark pass.
//
// Spans are opened by the benchmark's own code around the calls it makes
// into each layer's public seams (Simulator::Step, Station::OnFrame,
// PromiscuousListener::OnWireFrame, StorageBackend, KernelApi::Send and the
// benchmark programs' handlers).  Spans nest: a span's self time is its
// duration minus the durations of the spans opened directly inside it, so
// the self times of all layers add up to the time covered by the outermost
// spans.  Tallies are aggregated per layer in memory; no per-span records
// are kept, which keeps the traced pass cheap enough to run millions of
// events.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kSim = 0,      // Simulator::Step, minus every wrapped seam below it.
  kNet,          // Station::OnFrame of every transport endpoint.
  kCore,         // Recorder::OnWireFrame (the publish path).
  kStorage,      // StorageBackend calls on the Wal, and the WAL rebuild.
  kDemosSend,    // KernelApi::Send made by the benchmark's programs.
  kDemosHandler, // The benchmark programs' own OnMessage bodies.
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

struct LayerTally {
  uint64_t calls = 0;
  int64_t self_ns = 0;
  int64_t total_ns = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanTracer {
 public:
  void Begin(Layer layer) { stack_.push_back(Open{layer, NowNs(), 0}); }

  void End() {
    const int64_t end = NowNs();
    if (stack_.empty()) {
      ++unbalanced_ends_;
      return;
    }
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start_ns;
    LayerTally& tally = tallies_[static_cast<size_t>(open.layer)];
    ++tally.calls;
    tally.total_ns += duration;
    tally.self_ns += duration - open.child_ns;
    if (stack_.empty()) {
      covered_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
  }

  const LayerTally& tally(Layer layer) const { return tallies_[static_cast<size_t>(layer)]; }
  // Wall time inside outermost spans.
  int64_t covered_ns() const { return covered_ns_; }
  // Spans still open, plus End() calls with nothing open.  Both are
  // accounting errors; the attribution check requires zero.
  size_t open_spans() const { return stack_.size(); }
  uint64_t unbalanced_ends() const { return unbalanced_ends_; }

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  std::array<LayerTally, kLayerCount> tallies_{};
  std::vector<Open> stack_;
  int64_t covered_ns_ = 0;
  uint64_t unbalanced_ends_ = 0;
};

// The tracer of the pass in progress; null while a pass runs untraced, so a
// span costs one load and branch there.
extern SpanTracer* g_tracer;

class Span {
 public:
  explicit Span(Layer layer) : tracer_(g_tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

// Installs `tracer` as g_tracer for one scope.
class ActiveTracer {
 public:
  explicit ActiveTracer(SpanTracer* tracer) : previous_(g_tracer) { g_tracer = tracer; }
  ~ActiveTracer() { g_tracer = previous_; }
  ActiveTracer(const ActiveTracer&) = delete;
  ActiveTracer& operator=(const ActiveTracer&) = delete;

 private:
  SpanTracer* previous_;
};

// The attribution sum check: every layer's self time is non-negative, no
// span is left open or closed twice, and the self times add up exactly to
// the covered time, which cannot exceed the measured wall time.
struct Attribution {
  std::array<int64_t, kLayerCount> self_ns{};
  int64_t covered_ns = 0;
  int64_t wall_ns = 0;
  int64_t unattributed_ns = 0;
  bool ok = false;
  const char* error = "";
};

Attribution Attribute(const SpanTracer& tracer, int64_t wall_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
