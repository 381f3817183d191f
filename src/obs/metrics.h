// Virtual-time metrics registry (the registry DESIGN.md promised for the
// simulator, grown into its own subsystem).
//
// Three instrument kinds, all deterministic:
//   * Counter   — monotonically increasing u64 (frames sent, fsyncs, ...)
//   * Gauge     — last-write-wins double (queue depth, WAL bytes on disk)
//   * Histogram — StatAccumulator-backed sample distribution (ack latency,
//                 group-commit batch sizes); bounded memory, deterministic
//                 reservoir percentiles.
//
// Instruments are identified by a name plus optional labels, rendered as
// `name{key=value,...}` with labels sorted by key, so the same (name, labels)
// pair always resolves to the same instrument and snapshots order the same
// way on every run.
//
// Counters have one source of truth: the component's own `*Stats` field.  At
// attach time a component binds each field to its counter (BindCounter) and
// holds the returned CounterBinding; the hot path is then the component's
// plain `++stats_.field` with no registry branch, and the counter reads the
// field when sampled.  Gauges and histograms are still resolved once at
// attach and written through a cached pointer.  With no registry attached
// nothing is bound and runs are bit-identical to uninstrumented ones.
//
// Snapshots serialize to JSON (machine-readable, the BENCH_*.json seed) and
// CSV; both orderings are lexicographic by key, so two identical runs
// produce byte-identical files.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/stats.h"

namespace publishing {

// Label set for one instrument, e.g. {{"medium", "ethernet"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Canonical instrument key: `name` alone when `labels` is empty, otherwise
// `name{k1=v1,k2=v2}` with labels sorted by key.
std::string MetricKey(std::string_view name, const MetricLabels& labels);

// A counter's value is what was Add()ed directly plus, for every field bound
// to it, the field's growth since it was bound.  Releasing a binding folds
// that growth in, so the counter freezes at its last value instead of
// dropping it.
class Counter {
 public:
  void Add(uint64_t delta = 1) { folded_ += delta; }
  uint64_t value() const {
    uint64_t total = folded_;
    for (const Source& source : sources_) {
      total += *source.field - source.base;
    }
    return total;
  }

 private:
  friend class CounterBinding;
  friend class MetricsRegistry;

  struct Source {
    const uint64_t* field;
    uint64_t base;  // *field when bound.
  };

  uint64_t folded_ = 0;
  std::vector<Source> sources_;
};

// A component's live link from one of its `*Stats` fields to a registry
// counter.  Move-only; destroying or Release()ing it detaches the field.
// Either side may go first: a binding whose registry is already destroyed
// releases as a no-op.  Declare bindings after the fields they read, so the
// fields outlive them.
class CounterBinding {
 public:
  CounterBinding() = default;
  ~CounterBinding() { Release(); }
  CounterBinding(CounterBinding&& other) noexcept { *this = std::move(other); }
  CounterBinding& operator=(CounterBinding&& other) noexcept;
  CounterBinding(const CounterBinding&) = delete;
  CounterBinding& operator=(const CounterBinding&) = delete;

  void Release();

 private:
  friend class MetricsRegistry;
  CounterBinding(Counter* counter, const uint64_t* field, std::weak_ptr<void> registry)
      : counter_(counter), field_(field), registry_(std::move(registry)) {}

  Counter* counter_ = nullptr;
  const uint64_t* field_ = nullptr;
  std::weak_ptr<void> registry_;  // Expires when the registry is destroyed.
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  // Upper bounds of the export buckets (exponential decades).  Samples above
  // the last bound land in the overflow bucket, exported as "inf".  The JSON
  // export emits per-bucket (non-cumulative) counts keyed by upper bound, in
  // increasing-bound order, alongside count/sum — self-describing without a
  // side channel.
  static constexpr double kBucketBounds[] = {0.001, 0.01, 0.1, 1.0,
                                             10.0,  100.0, 1000.0, 10000.0};
  static constexpr size_t kBucketCount =
      sizeof(kBucketBounds) / sizeof(kBucketBounds[0]) + 1;  // + overflow.

  void Observe(double sample) {
    stats_.Add(sample);
    ++buckets_[BucketIndex(sample)];
  }
  const StatAccumulator& stats() const { return stats_; }

  // Convenience accessors mirroring StatAccumulator, so call sites don't
  // reach through stats() for the common summary values.
  uint64_t count() const { return stats_.count(); }
  double sum() const { return stats_.sum(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double p50() const { return stats_.p50(); }
  double p99() const { return stats_.p99(); }

  // Samples in bucket `i` (the overflow bucket is i == kBucketCount - 1).
  uint64_t bucket(size_t i) const { return buckets_[i]; }
  // Samples above the last bound — the explicit overflow ("inf") bucket.
  uint64_t overflow() const { return buckets_[kBucketCount - 1]; }

 private:
  static size_t BucketIndex(double sample) {
    for (size_t i = 0; i < kBucketCount - 1; ++i) {
      if (sample <= kBucketBounds[i]) {
        return i;
      }
    }
    return kBucketCount - 1;
  }

  StatAccumulator stats_;
  uint64_t buckets_[kBucketCount] = {};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the instrument for (name, labels).  The returned
  // pointer is stable for the registry's lifetime; callers cache it and pay
  // no lookup on the hot path.  A name may only be used with one instrument
  // kind; reusing it with another kind returns a fresh instrument under the
  // same key (last registration wins in the snapshot) — don't.
  Counter* GetCounter(std::string_view name, const MetricLabels& labels = {});
  // Binds `field` to the (name, labels) counter: from now on the counter
  // also counts the field's growth.  Many fields may bind one counter (an
  // aggregate over components).  `field` must stay valid until the binding
  // is released.
  CounterBinding BindCounter(std::string_view name, const MetricLabels& labels,
                             const uint64_t* field);
  // BindCounter for each (name, field) pair under one label set, appending
  // the bindings to `out`.
  void BindCounters(std::vector<CounterBinding>* out, const MetricLabels& labels,
                    std::initializer_list<std::pair<std::string_view, const uint64_t*>> fields);
  Gauge* GetGauge(std::string_view name, const MetricLabels& labels = {});
  Histogram* GetHistogram(std::string_view name, const MetricLabels& labels = {});

  size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

  // Deterministic serializations: keys sorted lexicographically, fixed
  // number formatting.  Histograms expand to count/sum/mean/min/max/stddev/
  // p50/p99 sub-objects.
  std::string ToJson() const;
  std::string ToCsv() const;

  // Writes ToJson()/ToCsv() to `path`.  Returns false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;
  bool WriteCsvFile(const std::string& path) const;

  // Read access for tests and report generators.
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const { return counters_; }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const { return gauges_; }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

 private:
  std::shared_ptr<int> lifetime_ = std::make_shared<int>(0);  // Bindings watch it.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Escapes `s` for inclusion in a JSON string literal (quotes not included).
std::string JsonEscape(std::string_view s);

// Formats a double the way every obs serializer does: integral values print
// without a fraction, others with up to 17 significant digits (round-trip
// exact, deterministic across runs).
std::string FormatMetricValue(double value);

// Writes `content` to `path`, the way every obs exporter does.  Returns
// false on I/O failure.
bool WriteTextFile(const std::string& path, std::string_view content);

}  // namespace publishing

#endif  // SRC_OBS_METRICS_H_
