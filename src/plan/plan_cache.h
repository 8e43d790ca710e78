// Coordinator plan cache: memoizes planned SELECTs keyed by normalized SQL
// text so repeated statements (the OLTP side of the mixed workload) stop
// paying parse/analyze/plan on every execution. Entries are stamped with the
// catalog version current at plan time; any DDL / expansion / rebalance bumps
// the cluster's catalog version and stale entries are evicted lazily at
// lookup ("plan_cache.invalidations").
#ifndef GPHTAP_PLAN_PLAN_CACHE_H_
#define GPHTAP_PLAN_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/metrics.h"
#include "plan/planner.h"

namespace gphtap {

class PlanCache {
 public:
  /// `capacity` 0 disables the cache (every lookup misses, inserts drop).
  /// `metrics` (optional) receives plan_cache.hits / .misses /
  /// .invalidations / .evictions counters.
  explicit PlanCache(size_t capacity, MetricsRegistry* metrics = nullptr);

  /// Returns the cached plan for `sql` when present and planned at
  /// `catalog_version`; a version mismatch evicts the entry and misses.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& sql,
                                           uint64_t catalog_version);

  /// Inserts (or replaces) the entry, evicting the least-recently-used entry
  /// beyond capacity.
  void Insert(const std::string& sql, std::shared_ptr<const CachedPlan> plan);

  void Clear();

  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string sql;
    std::shared_ptr<const CachedPlan> plan;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};

  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_invalidations_ = nullptr;
  Counter* m_evictions_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_PLAN_PLAN_CACHE_H_
