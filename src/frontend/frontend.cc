#include "frontend/frontend.h"

#include <algorithm>
#include <optional>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/fault_injector.h"

namespace gphtap {
namespace {

// Fairness bound on the inline continuation fast path: after this many
// consecutive statements handed straight back to one worker, the next one
// takes the queue so other sessions get the worker. TPC-B-shaped chains end
// well before this (the COMMIT's successor is a transaction opener, which
// always queues); the cap only matters for pathologically long transactions.
constexpr int kMaxInlineStreak = 32;

// Sweeper cadence: a quarter of the shorter idle/login timeout, so a session
// is reaped within 1.25x its timeout, clamped to [1 ms, 50 ms]. 0 = no sweeper.
int64_t SweepPeriodUs(const FrontDoorOptions& o) {
  int64_t shortest = 0;
  for (int64_t t : {o.idle_timeout_us, o.login_timeout_us}) {
    if (t > 0 && (shortest == 0 || t < shortest)) shortest = t;
  }
  return shortest == 0 ? 0 : std::clamp<int64_t>(shortest / 4, 1'000, 50'000);
}

}  // namespace

thread_local FrontDoor::InlineSlot* FrontDoor::tls_inline_ = nullptr;

// ---------------------------------------------------------------------------
// FrontendSession
// ---------------------------------------------------------------------------

FrontendSession::FrontendSession(FrontDoor* door, std::unique_ptr<Session> session)
    : door_(door),
      id_(session->session_info()->id),
      group_(session->session_info()->group()),
      info_(session->session_info()),
      session_(std::move(session)) {}

// The Session (if still attached) dies here: by the time the last shared_ptr
// drops, the handle is either finalized (session_ already null) or was never
// closed — then the Session dtor rolls back and unregisters as usual. The
// front door arranges that this never runs under its mutex.
FrontendSession::~FrontendSession() = default;

Status FrontendSession::Submit(std::string sql, StatementCallback done) {
  return door_->SubmitInternal(shared_from_this(), std::move(sql), std::move(done),
                               /*allow_inline=*/true);
}

StatusOr<QueryResult> FrontendSession::Execute(const std::string& sql) {
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<StatusOr<QueryResult>> result;
  };
  auto sync = std::make_shared<Sync>();
  // allow_inline=false: a blocking facade must never stow work in its own
  // worker's slot — the wait below would then starve the very statement it
  // waits for.
  Status submitted = door_->SubmitInternal(
      shared_from_this(), sql,
      [sync](StatusOr<QueryResult> r) {
        std::lock_guard<std::mutex> g(sync->mu);
        sync->result.emplace(std::move(r));
        sync->cv.notify_all();
      },
      /*allow_inline=*/false);
  if (!submitted.ok()) return submitted;
  std::unique_lock<std::mutex> g(sync->mu);
  sync->cv.wait(g, [&] { return sync->result.has_value(); });
  return std::move(*sync->result);
}

void FrontendSession::Close() { door_->CloseInternal(shared_from_this()); }

bool FrontendSession::closed() const {
  std::lock_guard<std::mutex> g(door_->mu_);
  return closed_;
}

// ---------------------------------------------------------------------------
// FrontDoor
// ---------------------------------------------------------------------------

FrontDoor::FrontDoor(Cluster* cluster, const FrontDoorOptions& options)
    : cluster_(cluster),
      options_(options),
      m_accepted_(cluster->metrics().counter("frontend.accepted")),
      m_queued_(cluster->metrics().counter("frontend.queued")),
      m_shed_(cluster->metrics().counter("frontend.shed")),
      m_idle_closed_(cluster->metrics().counter("frontend.idle_closed")),
      m_pool_busy_(cluster->metrics().counter("frontend.pool_busy")),
      m_executed_(cluster->metrics().counter("frontend.executed")),
      m_inline_(cluster->metrics().counter("frontend.inline_dispatch")),
      workers_(&cluster->gangs()) {
  for (int i = 0; i < std::max(1, options_.workers); ++i) {
    workers_.Spawn(-1, [this] { WorkerLoop(); });
  }
  if (const int64_t period = SweepPeriodUs(options_); period > 0) {
    sweeper_ = cluster->AddTask("frontend_sweeper", period, [this](std::stop_token) {
      Sweep();
      return true;
    });
  }
}

FrontDoor::~FrontDoor() { Stop(); }

int64_t FrontDoor::RetryAfterHintLocked() const {
  int64_t base = std::max<int64_t>(options_.retry_after_us, 1);
  auto depth = static_cast<int64_t>(txn_queue_.size() + open_queue_.size());
  int64_t bound = std::max(options_.max_dispatch_queue, 1);
  // 1x at an empty queue up to 4x at a full one: storms back off harder as
  // pressure grows, spreading retries to roughly the service rate.
  return base * (1 + 3 * depth / bound);
}

int64_t FrontDoor::RetryAfterHintUs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return RetryAfterHintLocked();
}

StatusOr<std::shared_ptr<FrontendSession>> FrontDoor::Connect(const std::string& role) {
  if (cluster_->faults().Evaluate(fault_points::kFrontendAcceptDrop)) {
    std::lock_guard<std::mutex> lk(mu_);
    ++shed_connects_;
    m_shed_->Add(1);
    return Status::Unavailable("connect dropped at accept")
        .WithRetryAfter(RetryAfterHintLocked());
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return Status::Unavailable("front door stopped");
    if (options_.max_sessions > 0 &&
        live_.size() >= static_cast<size_t>(options_.max_sessions)) {
      ++shed_connects_;
      m_shed_->Add(1);
      return Status::Unavailable("front door at max_sessions (" +
                                 std::to_string(options_.max_sessions) + ")")
          .WithRetryAfter(RetryAfterHintLocked());
    }
  }
  // Build the Session outside mu_: its constructor registers with the session
  // registry and resolves metrics. Racing connects can overshoot max_sessions
  // by the number of racers — the bound is a shed threshold, not an invariant.
  auto session = std::make_unique<Session>(cluster_, role);
  std::shared_ptr<FrontendSession> fs(new FrontendSession(this, std::move(session)));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stopping_) {
      int64_t now = MonotonicMicros();
      fs->connected_us_ = now;
      fs->last_active_us_ = now;
      live_.emplace(fs->id_, fs);
      m_accepted_->Add(1);
      return fs;
    }
  }
  // Stopped while we were building: fs (and its Session) dies here, outside
  // the front-door mutex.
  return Status::Unavailable("front door stopped");
}

Status FrontDoor::SubmitInternal(const std::shared_ptr<FrontendSession>& fs,
                                 std::string sql, StatementCallback done,
                                 bool allow_inline) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_ || fs->closed_) {
    return Status::Unavailable("logical session closed")
        .WithRetryAfter(RetryAfterHintLocked());
  }
  if (fs->busy_) {
    return Status::InvalidArgument(
        "statement already in flight on this logical session (no pipelining)");
  }
  // Safe to read off-thread: the previous statement's worker published its
  // writes by releasing mu_ when it cleared busy_, and we hold mu_ now.
  bool continuation = fs->session_->in_txn();
  if (!continuation) {
    // Only transaction-opening statements shed: a continuation must run so
    // its transaction can finish and release locks. Draining continuations
    // first (below) keeps the set of open transactions near the pool size.
    if (open_queue_.size() >= static_cast<size_t>(std::max(options_.max_dispatch_queue, 1))) {
      ++shed_statements_;
      m_shed_->Add(1);
      return Status::Unavailable("front-door dispatch queue full")
          .WithRetryAfter(RetryAfterHintLocked());
    }
    if (options_.group_queue_overflow > 0 &&
        cluster_->options().resource_groups_enabled) {
      auto bit = group_bound_.find(fs->group_);
      int bound;
      if (bit != group_bound_.end()) {
        bound = bit->second;
      } else {
        auto grp = cluster_->resgroups().Get(fs->group_);
        bound = grp == nullptr ? 0
                               : grp->DispatchBound(cluster_->options().resgroup_max_queue,
                                                    options_.group_queue_overflow);
        group_bound_[fs->group_] = bound;
      }
      if (bound > 0 && group_inflight_[fs->group_] >= bound) {
        ++shed_statements_;
        m_shed_->Add(1);
        return Status::Unavailable("resource group " + fs->group_ +
                                   " saturated at the front door")
            .WithRetryAfter(RetryAfterHintLocked());
      }
    }
  }
  fs->busy_ = true;
  ++group_inflight_[fs->group_];
  // Inline continuation fast path: this Submit is the completion callback of
  // the session's previous statement, running on the worker that just ran it.
  // Hand the work straight back to that worker instead of a queue round-trip
  // (enqueue, wakeup, context switch) — at tens of thousands of statements a
  // second that round-trip is the dominant front-door cost. The session never
  // queues, so it skips the queued-state publication and the wait accounting.
  InlineSlot* slot = tls_inline_;
  if (allow_inline && continuation && slot != nullptr && slot->door == this &&
      slot->armed && !slot->work_set) {
    fs->info_->SetStrings(nullptr, nullptr, &sql);
    slot->work = Work{fs, std::move(sql), std::move(done)};
    slot->work_set = true;
    m_inline_->Add(1);
    return Status::OK();
  }
  // Publish queued state for gp_stat_activity: state first stays whatever it
  // was until the full wait tuple is in place (readers tolerate either order,
  // but this way a `queued` row always has its wait event).
  SessionInfo* info = fs->info_.get();
  info->queue_depth.store(
      static_cast<int64_t>(txn_queue_.size() + open_queue_.size() + 1),
      std::memory_order_release);
  info->wait.start_us.store(MonotonicMicros(), std::memory_order_release);
  info->wait.event.store(static_cast<int>(WaitEvent::kFrontendDispatch),
                         std::memory_order_release);
  info->state.store(static_cast<int>(SessionState::kQueued), std::memory_order_release);
  // Publish the queued text now; Session::Execute republishes on dequeue.
  info->SetStrings(nullptr, nullptr, &sql);
  (continuation ? txn_queue_ : open_queue_)
      .push_back(Work{fs, std::move(sql), std::move(done)});
  m_queued_->Add(1);
  work_cv_.notify_one();
  return Status::OK();
}

void FrontDoor::WorkerLoop() {
  InlineSlot slot;
  slot.door = this;
  tls_inline_ = &slot;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      return stopping_ || !txn_queue_.empty() || !open_queue_.empty();
    });
    if (txn_queue_.empty() && open_queue_.empty()) {
      if (!stopping_) continue;
      // This thread outlives the loop: a later gang task on the same worker,
      // or the Stop caller that ran this loop from Join, must not see a dead
      // slot.
      tls_inline_ = nullptr;
      return;
    }
    std::deque<Work>& q = txn_queue_.empty() ? open_queue_ : txn_queue_;
    Work w = std::move(q.front());
    q.pop_front();
    ++busy_workers_;
    if (busy_workers_ >= std::max(options_.workers, 1)) m_pool_busy_->Add(1);
    slot.streak = 0;
    bool queued_work = true;  // false once w came from the inline slot
    // Inner loop: one dequeued statement plus the inline continuation chain
    // its completion callbacks hand back. busy_workers_ is released per
    // statement (observers poll it to see a statement finish) and retaken
    // when a continuation keeps the worker.
    for (;;) {
      bool fail_fast = stopping_;
      lk.unlock();

      SessionInfo* info = w.fs->info_.get();
      if (queued_work) {
        // Account the dispatch wait (and clear the queued state) on dequeue.
        // Inline work never queued: its wait tuple was never set.
        int64_t qstart = info->wait.start_us.load(std::memory_order_acquire);
        int64_t waited = std::max<int64_t>(0, MonotonicMicros() - qstart);
        cluster_->wait_events().Record(WaitEvent::kFrontendDispatch, -1, w.fs->group_,
                                       waited);
        info->wait.event.store(0, std::memory_order_release);
        info->wait.start_us.store(0, std::memory_order_release);
        info->queue_depth.store(0, std::memory_order_release);
      }

      StatusOr<QueryResult> result = Status::Unavailable("front door stopping");
      if (!fail_fast) {
        // Attach: from here this worker is the session's thread for one
        // statement — the session leaves `queued` the moment it is dispatched.
        info->state.store(static_cast<int>(SessionState::kActive),
                          std::memory_order_release);
        // Fault point: a stalled pool worker (GC pause, hung disk) — chaos arms
        // this to prove queued sessions stay diagnosable and nothing deadlocks.
        int64_t stall =
            cluster_->faults().EvaluateDelay(fault_points::kFrontendWorkerStall);
        if (stall > 0) PreciseSleepUs(stall);
        // The Session installs its own WaitContext inside Execute, so wait
        // events, resgroup admission and the statement deadline all attribute
        // normally.
        int64_t t0 = MonotonicMicros();
        result = w.fs->session_->Execute(w.sql);
        busy_us_.fetch_add(MonotonicMicros() - t0, std::memory_order_relaxed);
        m_executed_->Add(1);
        // Detach: publish the idle state the next attach will build on.
        info->state.store(static_cast<int>(w.fs->session_->in_txn()
                                               ? SessionState::kIdleInTransaction
                                               : SessionState::kIdle),
                          std::memory_order_release);
      } else {
        info->state.store(static_cast<int>(SessionState::kIdle),
                          std::memory_order_release);
      }

      lk.lock();
      --busy_workers_;  // re-incremented if the callback hands back a continuation
      w.fs->busy_ = false;
      w.fs->ever_ran_ = true;
      w.fs->last_active_us_ = MonotonicMicros();
      auto it = group_inflight_.find(w.fs->group_);
      if (it != group_inflight_.end() && --it->second <= 0) group_inflight_.erase(it);
      std::unique_ptr<Session> dead;
      if (w.fs->closed_ && w.fs->session_ != nullptr) dead = FinalizeLocked(w.fs.get());
      lk.unlock();
      dead.reset();  // Session dtor (rollback + unregister) outside mu_
      // Run the callback with the slot armed: if it submits this session's
      // next continuation, SubmitInternal stows the work here and this worker
      // runs it directly. Stopping or a full streak forces the queued path.
      slot.armed = !fail_fast && slot.streak < kMaxInlineStreak;
      if (w.done) w.done(std::move(result));
      slot.armed = false;
      if (slot.work_set) {
        w = std::move(slot.work);
        slot.work = Work{};
        slot.work_set = false;
        ++slot.streak;
        queued_work = false;
        lk.lock();  // inner-loop top expects the lock held (re-reads stopping_)
        ++busy_workers_;  // not a dequeue, so no pool_busy accounting
        continue;
      }
      w = Work{};  // drop the session handle before re-locking
      break;
    }
    lk.lock();
  }
}

void FrontDoor::Sweep() {
  std::vector<std::unique_ptr<Session>> dead;  // destroyed after mu_ is released
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return;
  const int64_t now = MonotonicMicros();
  for (auto it = live_.begin(); it != live_.end();) {
    FrontendSession* fs = it->second.get();
    const bool idle_hit = options_.idle_timeout_us > 0 && fs->ever_ran_ &&
                          now - fs->last_active_us_ >= options_.idle_timeout_us;
    const bool login_hit = options_.login_timeout_us > 0 && !fs->ever_ran_ &&
                           now - fs->connected_us_ >= options_.login_timeout_us;
    if (fs->busy_ || fs->closed_ || (!idle_hit && !login_hit)) {
      ++it;
      continue;
    }
    dead.push_back(FinalizeLocked(fs));
    it = live_.erase(it);
    ++idle_closed_;
    m_idle_closed_->Add(1);
  }
}

std::unique_ptr<Session> FrontDoor::FinalizeLocked(FrontendSession* fs) {
  fs->closed_ = true;
  return std::move(fs->session_);
}

void FrontDoor::CloseInternal(const std::shared_ptr<FrontendSession>& fs) {
  std::unique_ptr<Session> dead;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (fs->closed_) return;
    fs->closed_ = true;
    live_.erase(fs->id_);
    // Busy: the worker running the in-flight statement finalizes on completion.
    if (!fs->busy_ && fs->session_ != nullptr) dead = FinalizeLocked(fs.get());
  }
  dead.reset();
}

void FrontDoor::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  if (sweeper_ != nullptr) sweeper_->Stop();
  workers_.Join();
  // Workers drained both queues on the way out (failing each callback with
  // kUnavailable); with them joined no session is busy. Close every survivor.
  std::vector<std::unique_ptr<Session>> dead;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, fs] : live_) {
      fs->closed_ = true;
      if (fs->session_ != nullptr) dead.push_back(FinalizeLocked(fs.get()));
    }
    live_.clear();
  }
  dead.clear();
}

FrontDoor::Stats FrontDoor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.accepted = m_accepted_->value();
  s.queued = m_queued_->value();
  s.executed = m_executed_->value();
  s.inline_dispatched = m_inline_->value();
  s.shed_connects = shed_connects_;
  s.shed_statements = shed_statements_;
  s.idle_closed = idle_closed_;
  s.pool_busy = m_pool_busy_->value();
  s.busy_us = busy_us_.load(std::memory_order_relaxed);
  s.live_sessions = static_cast<int>(live_.size());
  s.queue_depth = static_cast<int>(txn_queue_.size() + open_queue_.size());
  s.busy_workers = busy_workers_;
  return s;
}

}  // namespace gphtap
