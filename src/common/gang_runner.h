// The gang runner: the one place that starts threads for statements and
// commits (DESIGN.md §4). Like Greenplum's cached QE processes
// (gp_cached_segworkers_threshold), a finished worker thread parks and takes
// the next task, so a gang member costs a hand-off instead of a thread start.
// Tasks never queue: each starts at once on a parked worker, or on a new thread
// when none is parked, so a task blocked on a lock or a full motion can never
// starve a sibling.
#ifndef GPHTAP_COMMON_GANG_RUNNER_H_
#define GPHTAP_COMMON_GANG_RUNNER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/wait_event.h"

namespace gphtap {

class GangRunner {
  struct Worker;

 public:
  /// A worker whose task ran longer than this exits instead of parking: a
  /// parked thread keeps its malloc cache, and a new thread is a small share
  /// of such a task.
  static constexpr int64_t kRetireAfterUs = 2000;

  /// Counts `gang.tasks` and `gang.threads_started` into `metrics`. Starts no
  /// thread before the first task. Tests pass their own `retire_after_us`, so
  /// that host scheduling cannot retire a worker they expect to park.
  explicit GangRunner(MetricsRegistry* metrics, int64_t retire_after_us = kRetireAfterUs);
  /// Joins every worker; no task may be running.
  ~GangRunner();

  /// Tasks the caller joins; destruction joins.
  class Gang {
   public:
    explicit Gang(GangRunner* runner) : runner_(runner) {}
    ~Gang() { Join(); }

    /// Starts `fn` now on a worker, under a copy of the calling thread's
    /// WaitContext relabelled with `node`.
    void Spawn(int node, std::function<void()> fn);
    /// Runs each task whose parked worker has not woken up yet on the calling
    /// thread, then waits for the rest.
    void Join();

   private:
    friend class GangRunner;
    void Done();

    GangRunner* runner_;
    std::vector<Worker*> handed_;  // parked workers given a task by Spawn
    std::mutex mu_;
    std::condition_variable cv_;
    int pending_ = 0;
  };

  /// Runs fn(i) labelled nodes[i] for every i: fn(0) on the calling thread, the
  /// rest on workers, all overlapping. Returns when every call has returned.
  void FanOut(const std::vector<int>& nodes, const std::function<void(size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    WaitContext wait;
    Gang* gang = nullptr;
  };
  // Slots are reused and never freed before ~GangRunner, so a spawner may
  // notify a slot's cv after releasing mu_.
  struct Worker {
    std::thread thread;          // set by the spawner, under mu_
    std::condition_variable cv;  // a task arrived, or the runner stops
    Task task;                   // hand-off, under mu_
    bool has_task = false;
    bool exited = false;         // retired; the slot may take a new thread
  };

  // Returns the parked worker handed the task, or null for a new thread.
  Worker* Start(Task task);
  // Runs the task on the calling thread if `w` has not picked it up yet.
  void Reclaim(Worker* w, Gang* gang);
  void Run(Worker* self, Task task);

  const int64_t retire_after_us_;
  Counter* tasks_;
  Counter* threads_started_;

  std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> parked_;
  bool stopping_ = false;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_GANG_RUNNER_H_
