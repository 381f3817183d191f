#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace publishing {

namespace {

template <typename T>
T* FindOrCreate(std::map<std::string, std::unique_ptr<T>>& table, std::string_view name,
                const MetricLabels& labels) {
  std::string key = MetricKey(name, labels);
  auto it = table.find(key);
  if (it == table.end()) {
    it = table.emplace(std::move(key), std::make_unique<T>()).first;
  }
  return it->second.get();
}

void AppendHistogramJson(std::string& out, const Histogram& h) {
  const StatAccumulator& s = h.stats();
  // Zero-sample histograms short-circuit to literal zeros: the summary must
  // not depend on whatever the accumulator's internal state happens to hold
  // before the first Observe (percentiles over an empty reservoir).
  const bool empty = s.count() == 0;
  out += "{\"count\":" + FormatMetricValue(static_cast<double>(s.count()));
  out += ",\"sum\":" + FormatMetricValue(empty ? 0.0 : s.sum());
  out += ",\"mean\":" + FormatMetricValue(empty ? 0.0 : s.mean());
  out += ",\"min\":" + FormatMetricValue(empty ? 0.0 : s.min());
  out += ",\"max\":" + FormatMetricValue(empty ? 0.0 : s.max());
  out += ",\"stddev\":" + FormatMetricValue(empty ? 0.0 : s.stddev());
  out += ",\"p50\":" + FormatMetricValue(empty ? 0.0 : s.p50());
  out += ",\"p99\":" + FormatMetricValue(empty ? 0.0 : s.p99());
  out += ",\"buckets\":{";
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"';
    // %g, not the %.17g of FormatMetricValue: the bounds are human-chosen
    // decade constants and the keys are schema ("0.1", never
    // "0.10000000000000001").
    char bound[32];
    if (i + 1 < Histogram::kBucketCount) {
      std::snprintf(bound, sizeof(bound), "%g", Histogram::kBucketBounds[i]);
    }
    out += i + 1 < Histogram::kBucketCount ? std::string(bound)
                                           : std::string("inf");
    out += "\":" + FormatMetricValue(static_cast<double>(h.bucket(i)));
  }
  out += "}}";
}

}  // namespace

std::string MetricKey(std::string_view name, const MetricLabels& labels) {
  if (labels.empty()) {
    return std::string(name);
  }
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  key += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) {
      key += ',';
    }
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatMetricValue(double value) {
  if (!std::isfinite(value)) {
    return "0";  // JSON has no NaN/Infinity; an unobserved stat reads as zero.
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, const MetricLabels& labels) {
  return FindOrCreate(counters_, name, labels);
}

CounterBinding MetricsRegistry::BindCounter(std::string_view name, const MetricLabels& labels,
                                            const uint64_t* field) {
  Counter* counter = GetCounter(name, labels);
  counter->sources_.push_back({field, *field});
  return CounterBinding(counter, field, lifetime_);
}

void MetricsRegistry::BindCounters(
    std::vector<CounterBinding>* out, const MetricLabels& labels,
    std::initializer_list<std::pair<std::string_view, const uint64_t*>> fields) {
  for (const auto& [name, field] : fields) {
    out->push_back(BindCounter(name, labels, field));
  }
}

CounterBinding& CounterBinding::operator=(CounterBinding&& other) noexcept {
  if (this != &other) {
    Release();
    counter_ = std::exchange(other.counter_, nullptr);
    field_ = std::exchange(other.field_, nullptr);
    registry_ = std::move(other.registry_);
  }
  return *this;
}

void CounterBinding::Release() {
  if (counter_ == nullptr) {
    return;
  }
  if (!registry_.expired()) {
    // Components usually release in reverse bind order: search from the back.
    std::vector<Counter::Source>& sources = counter_->sources_;
    for (size_t i = sources.size(); i-- > 0;) {
      if (sources[i].field == field_) {
        counter_->folded_ += *field_ - sources[i].base;
        sources[i] = sources.back();
        sources.pop_back();
        break;
      }
    }
  }
  counter_ = nullptr;
  field_ = nullptr;
  registry_.reset();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const MetricLabels& labels) {
  return FindOrCreate(gauges_, name, labels);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name, const MetricLabels& labels) {
  return FindOrCreate(histograms_, name, labels);
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":" +
           FormatMetricValue(static_cast<double>(counter->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":" + FormatMetricValue(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":";
    AppendHistogramJson(out, *histogram);
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToCsv() const {
  std::string out = "metric,stat,value\n";
  auto row = [&out](const std::string& key, const char* stat, double value) {
    // Commas inside a key (multi-label instruments) would split the column;
    // quote the key field unconditionally.
    out += '"' + key + "\"," + stat + ',' + FormatMetricValue(value) + '\n';
  };
  for (const auto& [key, counter] : counters_) {
    row(key, "value", static_cast<double>(counter->value()));
  }
  for (const auto& [key, gauge] : gauges_) {
    row(key, "value", gauge->value());
  }
  for (const auto& [key, histogram] : histograms_) {
    const StatAccumulator& s = histogram->stats();
    const bool empty = s.count() == 0;
    row(key, "count", static_cast<double>(s.count()));
    row(key, "sum", empty ? 0.0 : s.sum());
    row(key, "mean", empty ? 0.0 : s.mean());
    row(key, "min", empty ? 0.0 : s.min());
    row(key, "max", empty ? 0.0 : s.max());
    row(key, "stddev", empty ? 0.0 : s.stddev());
    row(key, "p50", empty ? 0.0 : s.p50());
    row(key, "p99", empty ? 0.0 : s.p99());
    // Per-bucket rows mirror the JSON buckets object, including the explicit
    // overflow ("inf") bucket the CSV export previously dropped.
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      char stat[40];
      if (i + 1 < Histogram::kBucketCount) {
        std::snprintf(stat, sizeof(stat), "bucket_le_%g", Histogram::kBucketBounds[i]);
      } else {
        std::snprintf(stat, sizeof(stat), "bucket_le_inf");
      }
      row(key, stat, static_cast<double>(histogram->bucket(i)));
    }
  }
  return out;
}

bool WriteTextFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) {
    std::fclose(f);
  }
  return ok;
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

bool MetricsRegistry::WriteCsvFile(const std::string& path) const {
  return WriteTextFile(path, ToCsv());
}

}  // namespace publishing
