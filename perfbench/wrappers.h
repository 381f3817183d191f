// Timing decorators installed around the public seams of a built system for
// the traced pass.  None of them changes what the wrapped object does; the
// parity check compares the traced pass's virtual-time results against the
// untraced pass to prove it.
//
// Medium::Attach appends the node to the broadcast order on every call and
// Detach never removes it, so re-attaching a station under a wrapper makes
// the medium hand each broadcast frame to that node twice.  The workloads
// send only unicast frames; TimedStation counts broadcasts it sees and the
// parity check's frames_delivered comparison catches any duplicate.

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/trace.h"
#include "src/net/medium.h"
#include "src/storage/storage_backend.h"

namespace perfbench {

// Keeps shared views of a spread-out sample of the frames a pass received,
// for timing CRC and packet parse/encode alone after the pass.
class FrameSampler {
 public:
  void Offer(const publishing::Frame& frame) {
    if (seen_++ % kEvery == 0 && frames_.size() < kCapacity) {
      frames_.push_back(frame);
    }
  }
  const std::vector<publishing::Frame>& frames() const { return frames_; }

 private:
  static constexpr size_t kCapacity = 4096;
  static constexpr uint64_t kEvery = 8;

  uint64_t seen_ = 0;
  std::vector<publishing::Frame> frames_;
};

class TimedStation final : public publishing::Station {
 public:
  TimedStation(publishing::Station* inner, FrameSampler* sampler)
      : inner_(inner), sampler_(sampler) {}

  // Replaces `inner` on `medium` with this wrapper.
  void Install(publishing::Medium& medium) {
    medium.Detach(inner_->Address());
    medium.Attach(this);
  }

  publishing::NodeId Address() const override { return inner_->Address(); }

  void OnFrame(const publishing::Frame& frame) override {
    ++frames_;
    payload_bytes_ += frame.payload.size();
    if (frame.dst == publishing::kBroadcastNode) {
      ++broadcasts_;
    }
    if (sampler_ != nullptr) {
      sampler_->Offer(frame);
    }
    Span span(Layer::kNet);
    inner_->OnFrame(frame);
  }

  uint64_t frames() const { return frames_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  uint64_t broadcasts() const { return broadcasts_; }

 private:
  publishing::Station* inner_;
  FrameSampler* sampler_;
  uint64_t frames_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t broadcasts_ = 0;
};

class TimedListener final : public publishing::PromiscuousListener {
 public:
  explicit TimedListener(publishing::PromiscuousListener* inner) : inner_(inner) {}

  // Replaces `inner` (attached with hardware home `home`) on `medium`.
  void Install(publishing::Medium& medium, publishing::NodeId home) {
    medium.DetachListener(inner_);
    medium.AttachListener(this, home);
  }

  bool OnWireFrame(const publishing::Frame& frame) override {
    ++frames_;
    payload_bytes_ += frame.payload.size();
    Span span(Layer::kCore);
    return inner_->OnWireFrame(frame);
  }

  uint64_t frames() const { return frames_; }
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  publishing::PromiscuousListener* inner_;
  uint64_t frames_ = 0;
  uint64_t payload_bytes_ = 0;
};

class TimedBackend final : public publishing::StorageBackend {
 public:
  explicit TimedBackend(publishing::StorageBackend* inner) : inner_(inner) {}

  void SetObservability(const publishing::Observability& obs) override {
    inner_->SetObservability(obs);
  }
  publishing::Status Append(std::span<const uint8_t> record, uint64_t now) override {
    ++appends_;
    const int64_t start = NowNs();
    publishing::Status status;
    {
      Span span(Layer::kStorage);
      status = inner_->Append(record, now);
    }
    append_ns_ += NowNs() - start;
    return status;
  }
  publishing::Status Sync() override {
    ++syncs_;
    const int64_t start = NowNs();
    publishing::Status status;
    {
      Span span(Layer::kStorage);
      status = inner_->Sync();
    }
    sync_ns_ += NowNs() - start;
    return status;
  }
  void Tick(uint64_t now) override {
    Span span(Layer::kStorage);
    inner_->Tick(now);
  }
  void OnCheckpointStored() override {
    Span span(Layer::kStorage);
    inner_->OnCheckpointStored();
  }
  void SetSnapshotSource(std::function<std::vector<publishing::Bytes>()> source) override {
    inner_->SetSnapshotSource(std::move(source));
  }

  uint64_t appends() const { return appends_; }
  uint64_t explicit_syncs() const { return syncs_; }
  int64_t append_ns() const { return append_ns_; }
  int64_t sync_ns() const { return sync_ns_; }

 private:
  publishing::StorageBackend* inner_;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  int64_t append_ns_ = 0;
  int64_t sync_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
