#include "storage/fault_injection.h"

#include <algorithm>

namespace segidx::storage {

void FaultInjectingBlockDevice::FailNthWrite(uint64_t n, bool sticky,
                                             size_t tear_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_write_at_ = counters_.writes + n;
  write_sticky_ = sticky;
  write_tear_bytes_ = tear_bytes;
}

void FaultInjectingBlockDevice::FailNthSync(uint64_t n, bool sticky) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_sync_at_ = counters_.syncs + n;
  sync_sticky_ = sticky;
}

void FaultInjectingBlockDevice::FailNthRead(uint64_t n, bool sticky) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_read_at_ = counters_.reads + n;
  read_sticky_ = sticky;
}

void FaultInjectingBlockDevice::FailEveryKthRead(uint64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_read_every_ = k;
}

void FaultInjectingBlockDevice::CorruptRange(uint64_t offset, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  corrupt_ranges_.emplace_back(offset, offset + n);
}

void FaultInjectingBlockDevice::ClearCorruptRanges() {
  std::lock_guard<std::mutex> lock(mu_);
  corrupt_ranges_.clear();
}

void FaultInjectingBlockDevice::CrashAtOp(uint64_t n, size_t tear_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_op_ = n;
  crash_tear_bytes_ = tear_bytes;
}

void FaultInjectingBlockDevice::SetReadOnly(bool read_only) {
  std::lock_guard<std::mutex> lock(mu_);
  read_only_ = read_only;
}

void FaultInjectingBlockDevice::SetDiskFull(bool disk_full) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_full_ = disk_full;
}

void FaultInjectingBlockDevice::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  fail_write_at_ = kNever;
  fail_sync_at_ = kNever;
  fail_read_at_ = kNever;
  fail_read_every_ = 0;
  corrupt_ranges_.clear();
  crash_at_op_ = kNever;
  dead_ = false;
  read_only_ = false;
  disk_full_ = false;
}

FaultInjectingBlockDevice::Counters FaultInjectingBlockDevice::counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

bool FaultInjectingBlockDevice::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

Status FaultInjectingBlockDevice::Read(uint64_t offset, size_t n,
                                       uint8_t* out) const {
  std::vector<std::pair<uint64_t, uint64_t>> corrupt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t index = counters_.reads++;
    if (fail_read_at_ != kNever &&
        (index == fail_read_at_ ||
         (read_sticky_ && index > fail_read_at_))) {
      ++counters_.faults_fired;
      return IoError("injected read fault (EIO) at read #" +
                     std::to_string(index));
    }
    if (fail_read_every_ != 0 && (index + 1) % fail_read_every_ == 0) {
      ++counters_.faults_fired;
      return IoError("injected flaky read fault (EIO) at read #" +
                     std::to_string(index));
    }
    corrupt = corrupt_ranges_;
  }
  SEGIDX_RETURN_IF_ERROR(inner_->Read(offset, n, out));
  for (const auto& [lo, hi] : corrupt) {
    const uint64_t begin = std::max(lo, offset);
    const uint64_t end = std::min(hi, offset + n);
    for (uint64_t i = begin; i < end; ++i) out[i - offset] ^= 0xff;
  }
  return Status::OK();
}

Status FaultInjectingBlockDevice::Write(uint64_t offset, const uint8_t* data,
                                        size_t n) {
  size_t tear = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t op = counters_.ops();
    const uint64_t index = counters_.writes++;
    if (dead_) {
      ++counters_.faults_fired;
      return IoError("injected fault: device lost after crash point");
    }
    if (read_only_) {
      ++counters_.faults_fired;
      return IoError("injected fault: device is read-only (EROFS)");
    }
    if (disk_full_) {
      ++counters_.faults_fired;
      return ResourceExhaustedError("injected fault: disk full (ENOSPC)");
    }
    if (op == crash_at_op_) {
      dead_ = true;
      ++counters_.faults_fired;
      tear = std::min(crash_tear_bytes_, n);
      if (tear == 0) {
        return IoError("injected crash (EIO) at op #" + std::to_string(op));
      }
    } else if (fail_write_at_ != kNever &&
               (index == fail_write_at_ ||
                (write_sticky_ && index > fail_write_at_))) {
      ++counters_.faults_fired;
      tear = std::min(write_tear_bytes_, n);
      if (tear == 0) {
        return IoError("injected write fault (EIO) at write #" +
                       std::to_string(index));
      }
    } else {
      tear = n;  // No fault: full write.
    }
  }
  // Inner write happens outside the lock (inner devices synchronize
  // themselves); `tear < n` means the scheduled fault fires after the
  // prefix lands — a torn write.
  const Status st = inner_->Write(offset, data, tear);
  if (!st.ok()) return st;
  if (tear < n) {
    return IoError("injected torn write (EIO) after " +
                   std::to_string(tear) + " bytes");
  }
  return Status::OK();
}

Status FaultInjectingBlockDevice::Sync() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t op = counters_.ops();
    const uint64_t index = counters_.syncs++;
    if (dead_) {
      ++counters_.faults_fired;
      return IoError("injected fault: device lost after crash point");
    }
    if (read_only_) {
      ++counters_.faults_fired;
      return IoError("injected fault: device is read-only (EROFS)");
    }
    if (disk_full_) {
      ++counters_.faults_fired;
      return ResourceExhaustedError("injected fault: disk full (ENOSPC)");
    }
    if (op == crash_at_op_) {
      dead_ = true;
      ++counters_.faults_fired;
      return IoError("injected crash (EIO) at op #" + std::to_string(op));
    }
    if (fail_sync_at_ != kNever &&
        (index == fail_sync_at_ || (sync_sticky_ && index > fail_sync_at_))) {
      ++counters_.faults_fired;
      return IoError("injected sync fault (EIO) at sync #" +
                     std::to_string(index));
    }
  }
  return inner_->Sync();
}

Status FaultInjectingBlockDevice::Truncate(uint64_t new_size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_ || read_only_) {
      ++counters_.faults_fired;
      return IoError("injected fault: truncate rejected");
    }
    if (disk_full_) {
      ++counters_.faults_fired;
      return ResourceExhaustedError("injected fault: disk full (ENOSPC)");
    }
  }
  return inner_->Truncate(new_size);
}

}  // namespace segidx::storage
