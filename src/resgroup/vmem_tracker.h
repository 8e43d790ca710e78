// Three-layer memory enforcement (Section 6, Vmemtracker): a query first
// consumes its SLOT quota (group non-shared memory / concurrency), then the
// GROUP SHARED pool, then the GLOBAL SHARED pool; only when all three are
// exhausted is the query cancelled.
#ifndef GPHTAP_RESGROUP_VMEM_TRACKER_H_
#define GPHTAP_RESGROUP_VMEM_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace gphtap {

class VmemTracker;

/// Per-group memory pools managed by the tracker.
class GroupMemory {
 public:
  GroupMemory(std::string name, int64_t limit_bytes, int shared_quota_pct,
              int concurrency)
      : name_(std::move(name)),
        limit_bytes_(limit_bytes),
        shared_bytes_(limit_bytes * shared_quota_pct / 100),
        slot_quota_bytes_(concurrency > 0
                              ? (limit_bytes - shared_bytes_) / concurrency
                              : limit_bytes - shared_bytes_) {}

  const std::string& name() const { return name_; }
  int64_t limit_bytes() const { return limit_bytes_; }
  int64_t slot_quota_bytes() const { return slot_quota_bytes_; }
  int64_t shared_bytes() const { return shared_bytes_; }

 private:
  friend class VmemTracker;
  friend class QueryMemoryAccount;
  std::string name_;
  int64_t limit_bytes_;
  int64_t shared_bytes_;       // MEMORY_SHARED_QUOTA pool
  int64_t slot_quota_bytes_;   // per-query first layer
  int64_t shared_used_ = 0;    // guarded by VmemTracker::mu_
};

/// One query's memory account; destruction releases everything it reserved.
class QueryMemoryAccount {
 public:
  QueryMemoryAccount(VmemTracker* tracker, std::shared_ptr<GroupMemory> group);
  ~QueryMemoryAccount();

  QueryMemoryAccount(const QueryMemoryAccount&) = delete;
  QueryMemoryAccount& operator=(const QueryMemoryAccount&) = delete;

  /// Reserves `bytes` through the slot -> group-shared -> global-shared layers.
  /// kResourceExhausted when all three are spent: the query must be cancelled.
  Status Reserve(int64_t bytes);
  void ReleaseAll();

  int64_t used_bytes() const { return slot_used() + group_shared_used() + global_used(); }
  int64_t slot_used() const { return slot_used_.load(std::memory_order_relaxed); }
  int64_t group_shared_used() const {
    return group_shared_used_.load(std::memory_order_relaxed);
  }
  int64_t global_used() const { return global_used_.load(std::memory_order_relaxed); }

 private:
  VmemTracker* const tracker_;
  std::shared_ptr<GroupMemory> group_;
  // Atomic: one query's parallel slices (gang members, motion receivers)
  // reserve through the same account concurrently.
  std::atomic<int64_t> slot_used_{0};
  std::atomic<int64_t> group_shared_used_{0};
  std::atomic<int64_t> global_used_{0};
};

/// Cluster-wide tracker holding the global shared pool.
class VmemTracker {
 public:
  explicit VmemTracker(int64_t global_shared_bytes)
      : global_shared_bytes_(global_shared_bytes) {}

  int64_t global_shared_bytes() const { return global_shared_bytes_; }
  int64_t global_shared_used() const {
    std::lock_guard<std::mutex> g(mu_);
    return global_used_;
  }

  /// Registers the resgroup.vmem_cancels counter (reservation failures that
  /// cancel a query); null is a no-op.
  void set_metrics(MetricsRegistry* metrics) {
    if (metrics != nullptr) m_vmem_cancels_ = metrics->counter("resgroup.vmem_cancels");
  }

 private:
  friend class QueryMemoryAccount;
  const int64_t global_shared_bytes_;
  mutable std::mutex mu_;
  int64_t global_used_ = 0;
  Counter* m_vmem_cancels_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_RESGROUP_VMEM_TRACKER_H_
