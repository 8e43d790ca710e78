// One background task: the primitive under every periodic daemon (GDD, FTS,
// DTX recovery, horizon maintenance, delta seal, stats history, the front-door
// sweeper), in the idiom of PostgreSQL's background workers: sleep in
// WaitLatch with a timeout, wake on SetLatch (DESIGN.md §4).
#ifndef GPHTAP_COMMON_PERIODIC_TASK_H_
#define GPHTAP_COMMON_PERIODIC_TASK_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>

#include "common/histogram.h"

namespace gphtap {

class PeriodicTask {
 public:
  /// One pass. A pass that loops (say, over segments) checks `stop` between
  /// steps. Returns whether work remains: true runs the next pass `period_us`
  /// after this one ends; false parks the task until WakeNow().
  using Pass = std::function<bool(std::stop_token stop)>;

  struct Stats {
    uint64_t runs = 0;          // completed passes
    int64_t last_start_us = 0;  // MonotonicMicros() at the last completed pass's start
    int64_t last_run_us = 0;    // that pass's duration
    Histogram durations;        // every pass's duration, in µs
  };

  /// Starts the task's thread; the first pass runs at once.
  PeriodicTask(std::string name, int64_t period_us, Pass pass);
  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops the task: returns as soon as a pass in flight returns, and never
  /// waits out a period. Idempotent; call from one thread at a time.
  void Stop();
  /// Runs the next pass now, or right after the pass in flight; also wakes a
  /// parked task.
  void WakeNow();

  const std::string& name() const { return name_; }
  int64_t period_us() const { return period_us_; }
  Stats stats() const;

 private:
  void Run(std::stop_token stop);

  const std::string name_;
  const int64_t period_us_;
  const Pass pass_;

  mutable std::mutex mu_;
  std::condition_variable_any cv_;  // a wake, or a stop request
  bool woken_ = false;              // WakeNow since the last pass began
  Stats stats_;
  std::jthread thread_;  // last: starts once every member above exists
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_PERIODIC_TASK_H_
