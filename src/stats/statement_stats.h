// Cumulative per-fingerprint statement statistics (gp_stat_statements,
// modeled on pg_stat_statements): at teardown the session folds each
// statement's StatementRecord and outcome into one Entry per normalized
// fingerprint — calls / errors / timeouts / retries / rows / latency histogram
// / plan-cache hits / vec batches + fallbacks / gang resource usage (exec CPU,
// motion bytes, buffer hits+misses, per-wait-event time). Bounded at
// `capacity` distinct fingerprints; the tail spills into one "<overflow>"
// bucket so a fingerprint flood cannot grow memory without bound.
#ifndef GPHTAP_STATS_STATEMENT_STATS_H_
#define GPHTAP_STATS_STATEMENT_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/wait_event.h"
#include "stats/statement_record.h"

namespace gphtap {

/// How one statement execution ended.
struct StatementOutcome {
  bool ok = true;
  bool timed_out = false;
  uint64_t retries = 0;
  uint64_t rows = 0;
  int64_t elapsed_us = 0;
};

class StatementStatsRegistry {
 public:
  explicit StatementStatsRegistry(size_t capacity = 512) : capacity_(capacity) {}

  /// Accumulated state for one fingerprint. Snapshot() copies it out with the
  /// two percentiles filled in.
  struct Entry {
    std::string fingerprint;
    uint64_t calls = 0;
    uint64_t errors = 0;    // statements that returned a non-OK status
    uint64_t timeouts = 0;  // subset of errors: statement deadline expired
    uint64_t retries = 0;   // transparent read-only retries summed over calls
    uint64_t plan_cache_hits = 0;
    uint64_t rows = 0;
    int64_t total_us = 0;
    int64_t min_us = 0;
    int64_t max_us = 0;
    int64_t p95_us = 0;       // from the per-call latency histogram
    int64_t gang_p95_us = 0;  // from per-slice wall times merged across calls
    uint64_t vec_batches = 0;
    uint64_t vec_fallbacks = 0;
    uint64_t exec_cpu_ns = 0;
    uint64_t net_bytes = 0;
    uint64_t buffer_hits = 0;
    uint64_t buffer_misses = 0;
    WaitEvent top_wait = WaitEvent::kNone;  // largest cumulative wait
    int64_t top_wait_us = 0;
    Histogram latency;      // per-call elapsed_us
    Histogram gang_slices;  // per-slice wall us, merged in via Histogram::Merge
    std::map<WaitEvent, int64_t> wait_us;
  };

  void Record(const std::string& fingerprint, const StatementRecord& record,
              const StatementOutcome& outcome);

  /// Copies of every entry, sorted by total_us descending.
  std::vector<Entry> Snapshot() const;

  void Reset();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace gphtap

#endif  // GPHTAP_STATS_STATEMENT_STATS_H_
