// One statement execution's accounting, in one struct (pg_stat_statements
// reads one instrumentation struct per query the same way). The Session owns
// one StatementRecord and resets it at statement start. Code below the session
// reaches it through one pointer, WaitContext::record: the gang runner copies
// the wait context into every executor slice and commit fan-out,
// and ExecContext::record carries the same pointer through the executor.
// gp_stat_statements, the slow-query log, EXPLAIN ANALYZE and Chrome traces
// all render from it.
//
// Counters are relaxed atomics: gang members on different threads bump them
// concurrently, and the session reads them after the gang has joined. The
// slice histogram, the waits and the operator actuals share one mutex, taken
// off the per-row path only (slice end, wait end, operator end).
#ifndef GPHTAP_STATS_STATEMENT_RECORD_H_
#define GPHTAP_STATS_STATEMENT_RECORD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/wait_event.h"

namespace gphtap {

class Trace;

/// EXPLAIN ANALYZE actuals of one plan operator (PlanNode::node_id). An
/// operator that runs on several gang members records once per execution;
/// rows accumulate, time keeps the slowest execution (the critical path).
struct OperatorActuals {
  int64_t rows = 0;
  int64_t batches = 0;  // ColumnBatches emitted (vectorized operators only)
  int64_t executions = 0;
  int64_t total_time_us = 0;
  int64_t max_time_us = 0;
  // Motion nodes only: interconnect blocked time, reported apart from the
  // operator's wall time.
  int64_t send_wait_us = 0;
  int64_t recv_wait_us = 0;
  // Scan nodes only: visible rows served per physical store ("heap",
  // "ao-column", "delta-sealed", "delta-open", ...), across the gang, and the
  // sealed column groups and partition leaves the filter's bounds skipped.
  std::map<std::string, int64_t> store_rows;
  int64_t groups_skipped = 0;
  int64_t leaves_skipped = 0;
};

class StatementRecord {
 public:
  struct Wait {
    WaitEvent event = WaitEvent::kNone;
    uint64_t count = 0;
    int64_t total_us = 0;
  };

  // Identity, set by the SQL driver. `fingerprint` is an override: EXECUTE
  // attributes to the prepared text; empty means fingerprint the SQL.
  std::string fingerprint;
  bool plan_cache_hit = false;

  // Gang resource counters.
  std::atomic<uint64_t> exec_cpu_ns{0};  // thread CPU time of slices and INSERT applies
  std::atomic<uint64_t> net_bytes{0};    // motion bytes sent (SimNet-charged)
  std::atomic<uint64_t> buffer_hits{0};
  std::atomic<uint64_t> buffer_misses{0};
  std::atomic<uint64_t> vec_batches{0};
  std::atomic<uint64_t> vec_fallbacks{0};

  // Optional parts, off unless the session turns them on for this statement:
  // per-operator actuals (EXPLAIN ANALYZE) and the statement's span tree.
  bool analyze = false;
  Trace* trace = nullptr;

  /// Times one slice (UPDATE / DELETE included) or INSERT segment apply on the
  /// thread that runs it. Reads the wall and thread-CPU clocks once here and
  /// once on destruction, then charges the record. A null record is a no-op.
  class SliceScope {
   public:
    explicit SliceScope(StatementRecord* record) : record_(record) {
      if (record_ == nullptr) return;
      wall_ns_ = MonotonicNanos();
      cpu_ns_ = ThreadCpuNanos();
    }
    ~SliceScope() {
      if (record_ == nullptr) return;
      record_->ChargeSlice(ThreadCpuNanos() - cpu_ns_,
                           (MonotonicNanos() - wall_ns_) / 1000);
    }
    SliceScope(const SliceScope&) = delete;
    SliceScope& operator=(const SliceScope&) = delete;

   private:
    StatementRecord* const record_;
    int64_t wall_ns_ = 0;
    int64_t cpu_ns_ = 0;
  };

  /// Charges one finished slice: its CPU time to exec_cpu_ns and its wall
  /// time to the slice histogram (gp_stat_statements.gang_p95_us).
  void ChargeSlice(int64_t cpu_ns, int64_t wall_us);
  void AddWait(WaitEvent event, int64_t elapsed_us);
  void AddOperator(int node_id, int64_t rows, int64_t elapsed_us, int64_t batches = 0);
  void AddMotionWait(int node_id, int64_t send_wait_us, int64_t recv_wait_us);
  void AddStoreRows(int node_id, const std::string& store, int64_t rows);
  void AddScanSkips(int node_id, int64_t groups, int64_t leaves);

  /// Up to `n` waits, sorted by total_us descending.
  std::vector<Wait> TopWaits(size_t n) const;
  Histogram slice_histogram() const;
  /// Zero-valued actuals when the operator never executed.
  OperatorActuals Operator(int node_id) const;

  /// Turns per-operator actuals on, starting from none (a retried EXPLAIN
  /// ANALYZE attempt does not add to the failed one's).
  void BeginAnalyze();
  /// Clears every part for the next statement.
  void Reset();

 private:
  mutable std::mutex mu_;
  Histogram slices_;
  std::map<WaitEvent, Wait> waits_;
  std::map<int, OperatorActuals> operators_;
};

}  // namespace gphtap

#endif  // GPHTAP_STATS_STATEMENT_RECORD_H_
