#include "cluster/dtx_recovery.h"

#include "common/periodic_task.h"

namespace gphtap {

DtxRecoveryDaemon::DtxRecoveryDaemon(Hooks hooks, MetricsRegistry* metrics)
    : hooks_(std::move(hooks)) {
  if (metrics != nullptr) {
    m_enqueued_ = metrics->counter("resilience.dtx_recovery_enqueued");
    m_resolved_ = metrics->counter("resilience.dtx_recovery_resolved");
    m_attempts_ = metrics->counter("resilience.dtx_recovery_attempts");
  }
}

void DtxRecoveryDaemon::Enqueue(Gxid gxid, std::shared_ptr<LockOwner> owner,
                                std::vector<int> pending) {
  {
    std::lock_guard<std::mutex> g(mu_);
    Entry e{gxid, std::move(owner), std::move(pending), {}};
    e.held = e.pending;
    entries_.push_back(std::move(e));
    ++stats_.enqueued;
  }
  if (m_enqueued_ != nullptr) m_enqueued_->Add(1);
  if (task_ != nullptr) task_->WakeNow();
}

DtxRecoveryDaemon::Stats DtxRecoveryDaemon::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

bool DtxRecoveryDaemon::RunOnce(std::stop_token stop) {
  std::unique_lock<std::mutex> lk(mu_);
  // std::list iterators stay valid across the unlocked hook calls below:
  // Enqueue only push_backs, and only the one running pass erases.
  for (auto it = entries_.begin(); it != entries_.end() && !stop.stop_requested();) {
    Entry& e = *it;
    for (auto seg_it = e.pending.begin();
         seg_it != e.pending.end() && !stop.stop_requested();) {
      int seg_index = *seg_it;
      ++stats_.attempts;
      lk.unlock();
      if (m_attempts_ != nullptr) m_attempts_->Add(1);
      Status s = hooks_.commit_segment(e.gxid, seg_index);
      // OK and definitive verdicts both mean the segment now has a durable
      // outcome for this transaction (a recovery-resolved commit answers OK
      // on the idempotent path); only retryable failures keep it pending.
      bool finished = s.ok() || !IsRetryableFailure(s);
      lk.lock();
      seg_it = finished ? e.pending.erase(seg_it) : std::next(seg_it);
    }
    if (!e.pending.empty()) {
      ++it;
      continue;
    }
    Gxid gxid = e.gxid;
    auto owner = e.owner;
    auto held = e.held;
    lk.unlock();
    // Order matters: mark the transaction distributively committed FIRST,
    // then release its locks. Writers that found its versions locally
    // committed block on these transaction locks (the write-dependency
    // barrier in Session::WaitForDistributedCommitOf); releasing before
    // MarkCommitted would wake them while the gxid still looks in
    // progress to new snapshots — the exact visibility tear the barrier
    // exists to prevent. It also keeps waiters off the still-prepared
    // pre-images between per-segment commits.
    hooks_.mark_committed(gxid);
    for (int seg_index : held) hooks_.release_locks(owner, seg_index);
    if (m_resolved_ != nullptr) m_resolved_->Add(1);
    lk.lock();
    ++stats_.resolved;
    it = entries_.erase(it);
  }
  return !entries_.empty();
}

}  // namespace gphtap
