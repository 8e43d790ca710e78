// The fsync cost model of one node's log, which makes commit-protocol
// latencies (Figure 10) measurable, plus the coordinator's record of which
// distributed transactions committed. The records themselves live in one
// place: a segment's change log (storage/change_log.h), which recovery
// replays (see Segment::Recover and DESIGN.md "Crash recovery and failover").
// Sync() injects latency only; the simulated disk never loses an appended
// record.
#ifndef GPHTAP_TXN_WAL_H_
#define GPHTAP_TXN_WAL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/wait_event.h"
#include "txn/xid.h"

namespace gphtap {

class Wal {
 public:
  /// The commit-critical record a sync makes durable.
  enum class SyncKind { kPrepare, kCommit };

  explicit Wal(int64_t fsync_cost_us = 0) : fsync_cost_us_(fsync_cost_us) {}

  /// Makes a just-appended prepare or commit record durable: one simulated
  /// fsync (latency injection + counters).
  void Sync(SyncKind kind) {
    Counter* counter = kind == SyncKind::kPrepare ? m_prepare_fsyncs_ : m_commit_fsyncs_;
    if (counter != nullptr) counter->Add(1);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (fsync_cost_us_ <= 0) return;
    WaitEventScope wait(WaitEvent::kWalFsync);
    // The record is already appended (the simulated disk never loses it), so
    // the latency injection can be abandoned early: a cancelled or
    // deadline-expired statement stops *waiting* for the fsync without
    // affecting durability. Sleep in poll-sized chunks and re-check.
    int64_t remaining = fsync_cost_us_;
    while (remaining > 0) {
      if (!CheckAmbientInterrupt().ok()) break;
      int64_t chunk = remaining < kInterruptPollUs ? remaining : kInterruptPollUs;
      PreciseSleepUs(chunk);
      remaining -= chunk;
    }
  }

  /// Coordinator only: durably records that distributed transaction `gxid`
  /// committed — the 2PC commit point between PREPARE and COMMIT PREPARED.
  void RecordDistributedCommit(Gxid gxid) {
    {
      std::lock_guard<std::mutex> g(mu_);
      distributed_commits_.insert(gxid);
    }
    Sync(SyncKind::kCommit);
  }

  /// True once RecordDistributedCommit(gxid) ran — the coordinator's authority
  /// for resolving in-doubt prepared transactions (Section 5).
  bool HasDistributedCommit(Gxid gxid) const {
    std::lock_guard<std::mutex> g(mu_);
    return distributed_commits_.count(gxid) > 0;
  }

  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  int64_t fsync_cost_us() const { return fsync_cost_us_; }

  /// Registers txn.prepare_fsyncs / txn.commit_fsyncs counters (cluster-wide
  /// totals across all nodes' WALs); null is a no-op.
  void set_metrics(MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    m_prepare_fsyncs_ = metrics->counter("txn.prepare_fsyncs");
    m_commit_fsyncs_ = metrics->counter("txn.commit_fsyncs");
  }

 private:
  const int64_t fsync_cost_us_;
  mutable std::mutex mu_;
  std::unordered_set<Gxid> distributed_commits_;
  std::atomic<uint64_t> fsyncs_{0};
  Counter* m_prepare_fsyncs_ = nullptr;
  Counter* m_commit_fsyncs_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_WAL_H_
