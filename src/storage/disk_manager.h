// In-memory "disk": the page-granular backing store beneath the buffer
// pool.
//
// The paper's experiments ran against a 30 GB on-disk database; what the
// monitoring/analyzer experiments need from the disk is (a) page-granular
// I/O that the buffer pool can hit or miss, (b) physical read/write
// counters feeding the system statistics, and (c) an optional per-access
// latency so benchmarks can reproduce I/O-bound cost shapes. An in-memory
// page store with those three properties substitutes for the spindle
// (see DESIGN.md §2).

#ifndef IMON_STORAGE_DISK_MANAGER_H_
#define IMON_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "storage/page.h"

namespace imon::storage {

using FileId = uint32_t;

/// Identifies one page across all files of a database.
struct PageId {
  FileId file_id = 0;
  uint32_t page_no = kInvalidPageNo;

  bool operator==(const PageId& o) const {
    return file_id == o.file_id && page_no == o.page_no;
  }
  bool valid() const { return page_no != kInvalidPageNo; }
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    // Pack into 64 bits first, then finalize (Mix64). A plain
    // `size_t(file_id) << 32 ^ page_no` is UB on 32-bit size_t (shift >=
    // width) and typically degenerates to `file_id ^ page_no`, colliding
    // every (a, b) with (b, a); the mixer keeps even the truncated low 32
    // bits well distributed on every target.
    return static_cast<size_t>(
        Mix64((static_cast<uint64_t>(p.file_id) << 32) | p.page_no));
  }
};

/// Test-only interception point for physical I/O: consulted before every
/// ReadPage/WritePage. Returning a non-OK Status makes the access fail
/// without touching the page image (the I/O is not counted either), which
/// is how the fault-injection harness (src/testing/fault_injector.h)
/// simulates media errors. Implementations must be thread-safe; the hook
/// may be invoked while buffer-pool internal locks are held, so it must
/// not call back into the storage stack.
class DiskFaultHook {
 public:
  virtual ~DiskFaultHook() = default;
  virtual Status BeforeRead(const PageId& pid) = 0;
  virtual Status BeforeWrite(const PageId& pid) = 0;
};

/// Cumulative physical I/O counters (never reset; sample and diff).
struct DiskStats {
  int64_t physical_reads = 0;
  int64_t physical_writes = 0;
  int64_t pages_allocated = 0;
};

/// Thread-safe in-memory page store with I/O accounting.
class DiskManager {
 public:
  /// `simulated_latency_nanos`: busy-wait added to every physical read and
  /// write, to let benchmarks model a spinning disk. 0 = off (default).
  explicit DiskManager(int64_t simulated_latency_nanos = 0)
      : latency_nanos_(simulated_latency_nanos) {}

  /// Create an empty file; returns its id.
  FileId CreateFile();

  /// Drop a file and all its pages.
  void DeleteFile(FileId file);

  /// Append a zeroed page to `file`; returns its page number.
  Result<uint32_t> AllocatePage(FileId file);

  /// Copy a page's bytes into `out` (kPageSize bytes). Counts one
  /// physical read.
  Status ReadPage(PageId pid, char* out);

  /// Overwrite a page from `data` (kPageSize bytes). Counts one physical
  /// write.
  Status WritePage(PageId pid, const char* data);

  /// Number of pages ever allocated in `file` (0 if unknown file).
  uint32_t NumPages(FileId file) const;

  /// Total pages across all files (database "size on disk" in pages).
  int64_t TotalPages() const;

  /// Total pages in the given files.
  int64_t TotalPagesIn(const std::vector<FileId>& files) const;

  DiskStats stats() const {
    DiskStats s;
    s.physical_reads = physical_reads_.load(std::memory_order_relaxed);
    s.physical_writes = physical_writes_.load(std::memory_order_relaxed);
    s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
    return s;
  }

  void set_simulated_latency_nanos(int64_t n) { latency_nanos_ = n; }

  /// Install (or clear, with nullptr) the fault hook. The hook must
  /// outlive every in-flight I/O; tests install it before the workload
  /// and clear it after quiescing.
  void set_fault_hook(DiskFaultHook* hook) {
    fault_hook_.store(hook, std::memory_order_release);
  }

 private:
  void SimulateLatency() const;

  DiskFaultHook* fault_hook() const {
    return fault_hook_.load(std::memory_order_acquire);
  }

  mutable std::mutex mutex_;
  FileId next_file_id_ = 1;
  std::unordered_map<FileId, std::vector<std::unique_ptr<char[]>>> files_;

  std::atomic<int64_t> physical_reads_{0};
  std::atomic<int64_t> physical_writes_{0};
  std::atomic<int64_t> pages_allocated_{0};
  std::atomic<int64_t> latency_nanos_;
  std::atomic<DiskFaultHook*> fault_hook_{nullptr};
};

}  // namespace imon::storage

#endif  // IMON_STORAGE_DISK_MANAGER_H_
