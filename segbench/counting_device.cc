#include "counting_device.h"

#include "trace.h"

namespace segbench {
namespace {

uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

segidx::Status CountingDevice::Read(uint64_t offset, size_t n,
                                    uint8_t* out) const {
  const Clock::time_point start = Clock::now();
  segidx::Status status = inner_->Read(offset, n, out);
  const Clock::time_point end = Clock::now();
  counters_->read_bytes.fetch_add(n, std::memory_order_relaxed);
  counters_->read_ns.fetch_add(Nanos(start, end), std::memory_order_relaxed);
  trace::RecordChild("storage.device.read", start, end);
  return status;
}

segidx::Status CountingDevice::Write(uint64_t offset, const uint8_t* data,
                                     size_t n) {
  const Clock::time_point start = Clock::now();
  segidx::Status status = inner_->Write(offset, data, n);
  const Clock::time_point end = Clock::now();
  counters_->write_bytes.fetch_add(n, std::memory_order_relaxed);
  trace::RecordChild("storage.device.write", start, end);
  return status;
}

segidx::Status CountingDevice::Sync() {
  const Clock::time_point start = Clock::now();
  segidx::Status status = inner_->Sync();
  const Clock::time_point end = Clock::now();
  counters_->syncs.fetch_add(1, std::memory_order_relaxed);
  counters_->sync_ns.fetch_add(Nanos(start, end), std::memory_order_relaxed);
  trace::RecordChild("storage.device.sync", start, end);
  return status;
}

}  // namespace segbench
