// Per-query distributed tracing and EXPLAIN ANALYZE support.
//
// A Trace is one query's span tree: the coordinator opens a root span, the
// planner and each executor slice (one per motion x gang member, running on a
// segment's producer thread) open child spans, all stamped with the monotonic
// clock. Spans carry the segment index they ran on (kCoordinatorNode for the
// coordinator) so tests and the text dump can show where time went.
//
// A traced statement's StatementRecord (stats/statement_record.h) points at
// its Trace. SlowQueryLog is a small ring buffer of statements that exceeded
// ClusterOptions::slow_query_threshold_us, filled from their records.
#ifndef GPHTAP_COMMON_TRACE_H_
#define GPHTAP_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace gphtap {

struct TraceSpan {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  int node = -1;  // segment index, or kCoordinatorNode
  int64_t start_us = 0;
  int64_t end_us = 0;  // 0 while the span is open
  int64_t rows = 0;    // rows produced, where the instrumented site knows
  bool aborted = false;  // span was force-closed when its query aborted
};

/// One query's span collection. Thread-safe: executor producer threads on
/// different segments append concurrently.
class Trace {
 public:
  static constexpr int kCoordinatorNode = -1;

  explicit Trace(uint64_t trace_id = 0) : trace_id_(trace_id) {}

  uint64_t trace_id() const { return trace_id_; }

  /// Opens a span; returns its id (parent_id 0 makes it a root).
  uint64_t StartSpan(const std::string& name, uint64_t parent_id = 0,
                     int node = kCoordinatorNode);
  /// No-op if the span is already ended (CloseOpenSpans may have beaten us).
  void EndSpan(uint64_t span_id, int64_t rows = 0);

  /// Appends an already-finished span (wait intervals measure first, then
  /// record). Returns its id.
  uint64_t AddCompletedSpan(const std::string& name, uint64_t parent_id, int node,
                            int64_t start_us, int64_t end_us);

  /// Force-closes every still-open span at `now`; with `mark_aborted`, flags
  /// them so an aborted query's trace shows where execution was cut off
  /// instead of leaking open spans.
  void CloseOpenSpans(bool mark_aborted);

  std::vector<TraceSpan> Spans() const;
  /// Indented text rendering of the span tree with relative timestamps.
  std::string ToString() const;

 private:
  const uint64_t trace_id_;
  mutable std::mutex mu_;
  std::atomic<uint64_t> next_id_{1};
  std::vector<TraceSpan> spans_;
};

/// Fixed-capacity ring of the slowest-offending statements.
class SlowQueryLog {
 public:
  struct WaitItem {
    std::string event;  // "Class:event", e.g. "Lock:relation"
    uint64_t count = 0;
    int64_t total_us = 0;
  };

  struct Entry {
    std::string sql;
    int64_t duration_us = 0;
    int64_t at_us = 0;  // monotonic timestamp of completion
    /// The statement's top wait events by accumulated time (at most 3): a slow
    /// OLAP scan (empty / Net-heavy) reads differently from a lock-starved
    /// OLTP statement (Lock-heavy) at a glance.
    std::vector<WaitItem> top_waits;
    // Join key against gp_stat_statements ("" when fingerprinting is off),
    // plus the execution-shape facts that explain a one-off slow run: did it
    // miss the plan cache, and how many transparent retries did it take.
    std::string fingerprint;
    bool plan_cache_hit = false;
    uint64_t retries = 0;
  };

  explicit SlowQueryLog(size_t capacity = 128) : capacity_(capacity) {}

  void Record(const std::string& sql, int64_t duration_us, int64_t at_us,
              std::vector<WaitItem> top_waits = {}, std::string fingerprint = "",
              bool plan_cache_hit = false, uint64_t retries = 0);
  std::vector<Entry> Entries() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_TRACE_H_
