// Deterministic I/O fault injection for crash-safety and resilience testing.
//
// FaultInjectingBlockDevice decorates any BlockDevice with a scriptable
// failure schedule: fail the Nth write/sync/read with a chosen errno-style
// message, fail every Kth read (a flaky cable — transient, later retries
// of the same offset succeed), corrupt reads overlapping chosen byte
// ranges (per-page damage targeting: the inner bytes stay intact, the
// reader sees them flipped), tear a write after K bytes, simulate a
// process crash at a given op index (everything after the fault fails), go
// read-only, or report a full disk (ENOSPC-style kResourceExhausted).
// Counters expose how many ops of each kind reached the device
// so tests can assert fault points precisely and torture harnesses can
// enumerate them.
//
// The op index used by CrashAtOp() counts writes and syncs in issue order
// (reads are not durability events). Index k is 0-based: CrashAtOp(0)
// fails the very first write or sync.

#ifndef SEGIDX_STORAGE_FAULT_INJECTION_H_
#define SEGIDX_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block_device.h"

namespace segidx::storage {

class FaultInjectingBlockDevice : public BlockDevice {
 public:
  struct Counters {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t syncs = 0;
    uint64_t faults_fired = 0;
    // Combined write+sync count (the crash-point index space).
    uint64_t ops() const { return writes + syncs; }
  };

  explicit FaultInjectingBlockDevice(std::unique_ptr<BlockDevice> inner)
      : inner_(std::move(inner)) {}

  // --- schedule -----------------------------------------------------------

  // Fails the nth write from now (0-based). With `sticky`, every later
  // write fails too. `tear_bytes` > 0 writes that prefix through to the
  // inner device before failing — a torn write.
  void FailNthWrite(uint64_t n, bool sticky = false, size_t tear_bytes = 0);
  // Fails the nth sync from now (0-based; sticky fails all later syncs).
  void FailNthSync(uint64_t n, bool sticky = false);
  // Fails the nth read from now (0-based; sticky fails all later reads).
  void FailNthRead(uint64_t n, bool sticky = false);

  // Flaky reads: every kth read from now fails (k >= 1; the k-1 reads in
  // between succeed). Unlike FailNthRead(sticky), the failure is
  // transient — retrying the same offset later succeeds. 0 disables.
  void FailEveryKthRead(uint64_t k);

  // Per-page corruption targeting: reads overlapping [offset, offset+n)
  // see those bytes inverted (the inner device is NOT modified, so the
  // same image can be observed clean by dropping the range). Ranges
  // accumulate until ClearCorruptRanges().
  void CorruptRange(uint64_t offset, uint64_t n);
  void ClearCorruptRanges();

  // Simulates a crash at combined write+sync op index `n` (counted from
  // construction): that op fails — a write first tears `tear_bytes` bytes
  // through — and every subsequent write and sync fails as well, as if the
  // process had died at that instant. Reads keep working so the caller can
  // observe the surviving image.
  void CrashAtOp(uint64_t n, size_t tear_bytes = 0);

  // Rejects all writes/syncs with an I/O error (no tear) until unset.
  void SetReadOnly(bool read_only);

  // Rejects all writes/syncs/truncates with kResourceExhausted (ENOSPC)
  // until unset — the disk is full, not broken: reads keep working, and
  // the data already on the device is intact.
  void SetDiskFull(bool disk_full);

  // Clears every scheduled fault (counters keep running).
  void ClearFaults();

  // --- observation --------------------------------------------------------

  Counters counters() const;
  bool crashed() const;
  BlockDevice* inner() { return inner_.get(); }

  // --- BlockDevice --------------------------------------------------------

  Status Read(uint64_t offset, size_t n, uint8_t* out) const override;
  Status Write(uint64_t offset, const uint8_t* data, size_t n) override;
  Status Sync() override;
  uint64_t size() const override { return inner_->size(); }
  Status Truncate(uint64_t new_size) override;

 private:
  static constexpr uint64_t kNever = ~uint64_t{0};

  std::unique_ptr<BlockDevice> inner_;

  mutable std::mutex mu_;
  mutable Counters counters_;
  uint64_t fail_write_at_ = kNever;
  bool write_sticky_ = false;
  size_t write_tear_bytes_ = 0;
  uint64_t fail_sync_at_ = kNever;
  bool sync_sticky_ = false;
  uint64_t fail_read_at_ = kNever;
  bool read_sticky_ = false;
  uint64_t fail_read_every_ = 0;  // 0 = off; else every kth read fails.
  std::vector<std::pair<uint64_t, uint64_t>> corrupt_ranges_;  // [off, off+n)
  uint64_t crash_at_op_ = kNever;
  size_t crash_tear_bytes_ = 0;
  bool dead_ = false;
  bool read_only_ = false;
  bool disk_full_ = false;
};

}  // namespace segidx::storage

#endif  // SEGIDX_STORAGE_FAULT_INJECTION_H_
