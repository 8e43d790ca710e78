// Per-slice execution context: which node we run on, the transaction's
// visibility information there, motion exchanges, and resource accounting.
#ifndef GPHTAP_EXEC_EXEC_CONTEXT_H_
#define GPHTAP_EXEC_EXEC_CONTEXT_H_

#include <memory>
#include <unordered_map>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "net/motion_exchange.h"
#include "resgroup/resource_group.h"
#include "stats/statement_record.h"

namespace gphtap {

using ExchangeMap = std::unordered_map<int, std::shared_ptr<MotionExchange>>;

struct ExecContext {
  Cluster* cluster = nullptr;
  Segment* segment = nullptr;  // null when running on the coordinator
  int receiver_index = 0;      // our index within the slice's gang

  Gxid gxid = kInvalidGxid;
  std::shared_ptr<LockOwner> owner;
  const DistributedSnapshot* snapshot = nullptr;
  LocalSnapshot lsnap;  // local fallback snapshot for this node

  ExchangeMap* exchanges = nullptr;

  ResourceGroup* group = nullptr;       // may be null (resource groups off)
  QueryMemoryAccount* mem = nullptr;    // may be null

  // Simulated CPU work per row processed, charged to `group`.
  int64_t cpu_ns_per_row = 0;
  int64_t pending_cpu_ns = 0;  // accumulated, flushed in Tick batches

  // Absolute statement deadline (statement_timeout GUC); 0 = none. Checked in
  // Tick with a throttled clock read; expiry cancels the whole owner so every
  // other slice of the query unwinds at its own next blocking/tick point.
  int64_t deadline_us = 0;
  int64_t rows_until_deadline_check = 0;

  // The statement's record: the WaitContext::record of the thread that ran
  // ExecutePlan, shared by every slice; null = not recording. Updated off the
  // per-row hot path only (batch boundaries, fallback events, operator end).
  StatementRecord* record = nullptr;

  // The slice's root node. ExecuteNode explodes a vectorize-marked subtree's
  // batches into rows for its caller; when that caller is a row operator
  // mid-plan the boundary is a genuine engine fallback (vec.fallbacks), but at
  // the slice root it is just final delivery and not counted.
  const void* slice_root = nullptr;

  /// The record when it collects per-operator actuals (EXPLAIN ANALYZE).
  StatementRecord* actuals() const {
    return record != nullptr && record->analyze ? record : nullptr;
  }

  /// Builds the visibility context for this node.
  VisibilityContext Vis() const {
    VisibilityContext v;
    if (segment != nullptr) {
      v.clog = &segment->clog();
      v.dlog = &segment->dlog();
      auto xid = segment->txns().LookupXid(gxid);
      v.my_xid = xid.value_or(kInvalidLocalXid);
    } else {
      v.clog = &cluster->coordinator_clog();
      v.dlog = &cluster->coordinator_dlog();
      auto xid = cluster->coordinator_txns().LookupXid(gxid);
      v.my_xid = xid.value_or(kInvalidLocalXid);
    }
    v.dsnap = snapshot;
    v.lsnap = &lsnap;
    return v;
  }

  /// Cancellation point + CPU accounting, called once per row-ish.
  Status Tick(int rows = 1) {
    if (owner != nullptr && owner->cancelled()) return owner->cancel_reason();
    if (deadline_us != 0) {
      rows_until_deadline_check -= rows;
      if (rows_until_deadline_check <= 0) {
        rows_until_deadline_check = 1024;  // amortize the clock read
        if (MonotonicMicros() >= deadline_us) {
          Status timeout = Status::TimedOut("statement timeout");
          if (owner != nullptr) owner->Cancel(timeout);
          return timeout;
        }
      }
    }
    if (cpu_ns_per_row > 0) {
      pending_cpu_ns += cpu_ns_per_row * rows;
      if (pending_cpu_ns >= 100'000) {  // flush every 100us of simulated work
        if (group != nullptr) group->ChargeCpu(pending_cpu_ns / 1000);
        pending_cpu_ns = 0;
      }
    }
    return Status::OK();
  }

  void FlushCpu() {
    if (group != nullptr && pending_cpu_ns > 0) group->ChargeCpu(pending_cpu_ns / 1000);
    pending_cpu_ns = 0;
  }
};

}  // namespace gphtap

#endif  // GPHTAP_EXEC_EXEC_CONTEXT_H_
