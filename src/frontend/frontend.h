// The million-session front door: thread-decoupled logical sessions
// multiplexed over a bounded worker pool, with graceful overload degradation.
//
// A direct Cluster::Connect() session is passive state driven by whatever
// thread calls into it — so a workload of N concurrent clients needs N OS
// threads, and a connection storm exhausts the machine before the resource
// group admission queue or the circuit breaker (PR 5) ever see the load. The
// front door breaks that 1:1 mapping:
//
//   * Connect() returns a lightweight FrontendSession handle. Accept is
//     bounded (max_sessions): beyond it, connects are shed with a retryable
//     kUnavailable carrying a retry-after hint — never blocked, never a new
//     thread.
//   * Submit() enqueues one statement as a work item and returns immediately;
//     a fixed pool of workers dequeues items and attaches/detaches the
//     underlying Session state (transaction, prepared statements, wait
//     context, resgroup slot) per statement. A logical session therefore
//     holds no thread while idle or queued, so tens of thousands of them
//     coexist over a handful of workers.
//   * Dispatch is two-level: statements of an open transaction go to a
//     priority queue that is drained first and never shed (they must run so
//     the transaction can release its locks), while transaction-opening
//     statements are bounded globally (max_dispatch_queue) and per resource
//     group (ResourceGroup::DispatchBound) — backpressure upstream of the
//     PR 5 admission queue and circuit breaker, not instead of them.
//   * Inline continuation fast path: when a completion callback running on a
//     pool worker submits the same session's next continuation, the work is
//     handed straight back to that worker through a thread-local slot — no
//     queue round-trip, no condvar wakeup. A streak cap forces a round
//     through the queue so one chatty transaction cannot monopolize a
//     worker; transaction-opening statements always take the queued path so
//     admission control sees every new transaction.
//   * A sweeper task enforces idle-session and login timeouts so abandoned
//     handles cannot pin registry entries forever.
//   * Fault points frontend.worker_stall (delay) and frontend.accept_drop
//     let chaos stall the pool and drop connects mid-storm.
//
// Memory model: a logical session runs at most one statement at a time
// (Submit while one is in flight is rejected), and every handoff of the
// Session state between workers goes through the front door mutex, which
// gives worker B running statement N+1 a happens-before edge on worker A
// finishing statement N. An inline continuation runs on the same worker
// thread that ran statement N, so program order covers it (Submit still
// takes the mutex for the busy/group bookkeeping).
//
// While queued, a session is visible in gp_stat_activity as state `queued`
// with wait_event frontend:dispatch and the dispatch-queue depth it joined
// behind; the wait is accumulated into gp_wait_events on dequeue.
#ifndef GPHTAP_FRONTEND_FRONTEND_H_
#define GPHTAP_FRONTEND_FRONTEND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/session.h"
#include "common/gang_runner.h"
#include "common/periodic_task.h"
#include "common/status.h"
#include "frontend/frontend_options.h"

namespace gphtap {

class FrontDoor;

/// Completion of one submitted statement. Runs on a pool worker thread after
/// the session is detached, so it may immediately Submit the next statement
/// (callback-chained state machines are the intended client shape); it must
/// not block for long — a blocked callback is a blocked pool worker.
using StatementCallback = std::function<void(StatusOr<QueryResult>)>;

/// A logical session: the client-side handle the front door hands out. All
/// mutable state is guarded by the owning FrontDoor's mutex; the embedded
/// Session is touched only by the worker executing this session's current
/// statement (or by teardown once the session can no longer become busy).
class FrontendSession : public std::enable_shared_from_this<FrontendSession> {
 public:
  ~FrontendSession();

  FrontendSession(const FrontendSession&) = delete;
  FrontendSession& operator=(const FrontendSession&) = delete;

  /// Enqueues one statement. Returns non-OK immediately — without invoking
  /// `done` — when the statement cannot be accepted: the session is closed
  /// (retryable kUnavailable: reconnect), a statement is already in flight
  /// (kInvalidArgument: no pipelining), or the dispatch queue / this
  /// session's resource group is saturated (retryable kUnavailable with a
  /// retry-after hint). On OK, `done` is invoked exactly once.
  Status Submit(std::string sql, StatementCallback done);

  /// Synchronous facade over Submit for tests and simple clients: blocks the
  /// calling thread (not a pool worker) until the statement completes.
  /// Submit-level rejections (shed, closed, busy) come back as the error.
  /// Never takes the inline fast path — the statement always goes through
  /// the queue, so calling this from a completion callback cannot deadlock
  /// on the worker's own slot (it still blocks a pool worker, so don't).
  StatusOr<QueryResult> Execute(const std::string& sql);

  /// Closes the logical session: rolls back any open transaction, destroys
  /// the underlying Session (removing it from gp_stat_activity) and rejects
  /// every later Submit. Idempotent; safe from callbacks (deferred until the
  /// in-flight statement, if any, completes).
  void Close();

  /// gp_stat_activity session id of the underlying Session.
  int64_t id() const { return id_; }
  /// Resource group the session's role mapped to at connect.
  const std::string& group() const { return group_; }
  bool closed() const;

 private:
  friend class FrontDoor;
  FrontendSession(FrontDoor* door, std::unique_ptr<Session> session);

  FrontDoor* const door_;
  const int64_t id_;
  const std::string group_;
  std::shared_ptr<SessionInfo> info_;  // outlives session_ for late readers

  // --- Guarded by door_->mu_ ---
  std::unique_ptr<Session> session_;
  bool busy_ = false;        // a statement is queued or executing
  bool closed_ = false;
  bool ever_ran_ = false;    // login-timeout: has any statement completed
  int64_t connected_us_ = 0;
  int64_t last_active_us_ = 0;
};

/// The front door itself; Cluster owns one when options.frontend.enabled.
class FrontDoor {
 public:
  FrontDoor(Cluster* cluster, const FrontDoorOptions& options);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Accepts a logical session for `role`, or sheds: over max_sessions (or
  /// with frontend.accept_drop armed) this returns a retryable kUnavailable
  /// with a retry-after hint instead of blocking — graceful degradation is
  /// the contract. Never creates a thread.
  StatusOr<std::shared_ptr<FrontendSession>> Connect(const std::string& role = "");

  /// Stops workers and the sweeper, failing still-queued statements with
  /// kUnavailable and closing every live session. Called by ~Cluster before
  /// any other subsystem comes down; idempotent, from one thread at a time.
  void Stop();

  const FrontDoorOptions& options() const { return options_; }

  /// Point-in-time front-door state (bench + tests; counters also live in
  /// gp_metrics under frontend.*).
  struct Stats {
    uint64_t accepted = 0;         // connects admitted
    uint64_t shed_connects = 0;    // connects shed (capacity or fault point)
    uint64_t queued = 0;           // statements enqueued
    uint64_t executed = 0;         // statements completed by workers
    uint64_t inline_dispatched = 0;  // continuations run without queueing
    uint64_t shed_statements = 0;  // submits shed (dispatch/group bounds)
    uint64_t idle_closed = 0;      // sessions reaped by idle/login timeout
    uint64_t pool_busy = 0;        // dequeues that saturated the pool
    int64_t busy_us = 0;           // total worker time spent executing
    int live_sessions = 0;
    int queue_depth = 0;           // both levels, now
    int busy_workers = 0;
  };
  Stats stats() const;

  /// The retry-after hint currently attached to sheds: the base hint scaled
  /// by dispatch-queue pressure, so storms back off harder as load grows.
  int64_t RetryAfterHintUs() const;

 private:
  friend class FrontendSession;

  struct Work {
    std::shared_ptr<FrontendSession> fs;
    std::string sql;
    StatementCallback done;
  };

  /// Per-worker inline-continuation slot: points at the owning worker's stack
  /// while its WorkerLoop runs (cleared when it returns), armed only for the
  /// span of a completion callback. Touched exclusively by that worker thread (SubmitInternal
  /// reaches it only when called *on* the worker, inside the callback).
  struct InlineSlot {
    FrontDoor* door = nullptr;
    bool armed = false;  // true only while the worker runs a completion callback
    int streak = 0;      // consecutive inline statements this worker has run
    bool work_set = false;
    Work work;
  };
  static thread_local InlineSlot* tls_inline_;

  Status SubmitInternal(const std::shared_ptr<FrontendSession>& fs, std::string sql,
                        StatementCallback done, bool allow_inline);
  void CloseInternal(const std::shared_ptr<FrontendSession>& fs);
  void WorkerLoop();
  /// Closes sessions past their idle or login timeout.
  void Sweep();
  /// Detaches fs's Session for destruction. Requires mu_ held, fs not busy.
  std::unique_ptr<Session> FinalizeLocked(FrontendSession* fs);
  int64_t RetryAfterHintLocked() const;

  Cluster* const cluster_;
  const FrontDoorOptions options_;

  // frontend.* counters (resolved once from the cluster MetricsRegistry).
  Counter* m_accepted_;
  Counter* m_queued_;
  Counter* m_shed_;
  Counter* m_idle_closed_;
  Counter* m_pool_busy_;
  Counter* m_executed_;
  Counter* m_inline_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
  // Two-level dispatch: continuations of open transactions drain first and
  // never shed; transaction-opening statements are the bounded level.
  std::deque<Work> txn_queue_;
  std::deque<Work> open_queue_;
  // Queued + executing statements per resource group (backpressure).
  std::unordered_map<std::string, int> group_inflight_;
  // Cached per-group dispatch bounds (group configs are immutable once made).
  std::unordered_map<std::string, int> group_bound_;
  // Every live logical session, by session id (sweeper + shutdown walk it).
  std::unordered_map<int64_t, std::shared_ptr<FrontendSession>> live_;
  int busy_workers_ = 0;

  // Monotonic accumulators (mu_ for the ints; counters are atomics).
  uint64_t shed_connects_ = 0;
  uint64_t shed_statements_ = 0;
  uint64_t idle_closed_ = 0;
  std::atomic<int64_t> busy_us_{0};

  // The WorkerLoops, on the cluster's gang runner; Stop joins them.
  GangRunner::Gang workers_;
  // Owned by the cluster's task list; null without an idle or login timeout.
  PeriodicTask* sweeper_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_FRONTEND_FRONTEND_H_
