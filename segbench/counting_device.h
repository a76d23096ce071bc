// BlockDevice decorator that counts and times every Read, Write and Sync.
//
// Installed under an index through IntervalIndex::CreateWithDevice, it sees
// exactly the I/O the pager issues — cache misses, spills, journal, slot
// and home writes, fsyncs — without any hook inside the library. When
// tracing is on, each call is also recorded as a storage.device.{read,
// write,sync} span parented to the core span open on the calling thread.

#ifndef SEGBENCH_COUNTING_DEVICE_H_
#define SEGBENCH_COUNTING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/block_device.h"

namespace segbench {

// Totals since construction; owned by the workload so they outlive the
// index that owns the device.
struct DeviceCounters {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_ns{0};
};

class CountingDevice : public segidx::storage::BlockDevice {
 public:
  // `counters` must outlive the device.
  CountingDevice(std::unique_ptr<segidx::storage::BlockDevice> inner,
                 DeviceCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  segidx::Status Read(uint64_t offset, size_t n, uint8_t* out) const override;
  segidx::Status Write(uint64_t offset, const uint8_t* data,
                       size_t n) override;
  segidx::Status Sync() override;
  uint64_t size() const override { return inner_->size(); }
  segidx::Status Truncate(uint64_t new_size) override {
    return inner_->Truncate(new_size);
  }

 private:
  std::unique_ptr<segidx::storage::BlockDevice> inner_;
  DeviceCounters* counters_;
};

}  // namespace segbench

#endif  // SEGBENCH_COUNTING_DEVICE_H_
