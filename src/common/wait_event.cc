#include "common/wait_event.h"

#include <algorithm>

#include "common/clock.h"
#include "common/trace.h"
#include "lock/lock_owner.h"
#include "stats/statement_record.h"

namespace gphtap {

const char* WaitEventClassName(WaitEventClass c) {
  switch (c) {
    case WaitEventClass::kNone:
      return "None";
    case WaitEventClass::kLock:
      return "Lock";
    case WaitEventClass::kNet:
      return "Net";
    case WaitEventClass::kIO:
      return "IO";
    case WaitEventClass::kIpc:
      return "IPC";
    case WaitEventClass::kResGroup:
      return "ResGroup";
    case WaitEventClass::kFrontend:
      return "frontend";
  }
  return "?";
}

const char* WaitEventName(WaitEvent e) {
  switch (e) {
    case WaitEvent::kNone:
      return "";
    case WaitEvent::kLockRelation:
      return "relation";
    case WaitEvent::kLockTuple:
      return "tuple";
    case WaitEvent::kLockTransaction:
      return "transactionid";
    case WaitEvent::kMotionSend:
      return "motion_send";
    case WaitEvent::kMotionRecv:
      return "motion_recv";
    case WaitEvent::kWalFsync:
      return "wal_fsync";
    case WaitEvent::kBufferRead:
      return "buffer_read";
    case WaitEvent::kPrepareAck:
      return "prepare_ack";
    case WaitEvent::kCommitPreparedAck:
      return "commit_prepared_ack";
    case WaitEvent::kResGroupSlot:
      return "resgroup_slot";
    case WaitEvent::kDeltaFreshness:
      return "delta_freshness";
    case WaitEvent::kDeltaSealStall:
      return "delta_seal_stall";
    case WaitEvent::kFrontendDispatch:
      return "dispatch";
  }
  return "?";
}

WaitEventClass ClassOfEvent(WaitEvent e) {
  switch (e) {
    case WaitEvent::kNone:
      return WaitEventClass::kNone;
    case WaitEvent::kLockRelation:
    case WaitEvent::kLockTuple:
    case WaitEvent::kLockTransaction:
      return WaitEventClass::kLock;
    case WaitEvent::kMotionSend:
    case WaitEvent::kMotionRecv:
      return WaitEventClass::kNet;
    case WaitEvent::kWalFsync:
    case WaitEvent::kBufferRead:
      return WaitEventClass::kIO;
    case WaitEvent::kPrepareAck:
    case WaitEvent::kCommitPreparedAck:
      return WaitEventClass::kIpc;
    case WaitEvent::kResGroupSlot:
      return WaitEventClass::kResGroup;
    case WaitEvent::kDeltaFreshness:
      return WaitEventClass::kIpc;
    case WaitEvent::kDeltaSealStall:
      return WaitEventClass::kLock;
    case WaitEvent::kFrontendDispatch:
      return WaitEventClass::kFrontend;
  }
  return WaitEventClass::kNone;
}

void WaitEventRegistry::Record(WaitEvent event, int node, const std::string& group,
                               int64_t elapsed_us) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = entries_[Key{static_cast<int>(event), node, group}];
  e.event = event;
  e.node = node;
  e.group = group;
  ++e.count;
  e.total_us += elapsed_us;
  e.max_us = std::max(e.max_us, elapsed_us);
  e.histogram.Record(elapsed_us);
}

std::vector<WaitEventRegistry::Entry> WaitEventRegistry::Snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

namespace {
thread_local WaitContext* tls_wait_context = nullptr;
}  // namespace

WaitContext* CurrentWaitContext() { return tls_wait_context; }

Status CheckAmbientInterrupt() {
  WaitContext* ctx = tls_wait_context;
  if (ctx == nullptr || ctx->owner == nullptr) return Status::OK();
  LockOwner* owner = ctx->owner;
  if (owner->cancelled()) return owner->cancel_reason();
  if (owner->DeadlineExpired(MonotonicMicros())) {
    // Cancel the whole transaction so every other slice/worker of this query
    // unwinds too, then report the timeout from this blocking point.
    Status timeout = Status::TimedOut("statement timeout");
    owner->Cancel(timeout);
    return timeout;
  }
  return Status::OK();
}

WaitContextGuard::WaitContextGuard(WaitContext ctx, bool only_if_absent)
    : ctx_(std::move(ctx)) {
  if (only_if_absent && tls_wait_context != nullptr) return;
  prev_ = tls_wait_context;
  tls_wait_context = &ctx_;
  installed_ = true;
}

WaitContextGuard::~WaitContextGuard() {
  if (installed_) tls_wait_context = prev_;
}

WaitEventScope::WaitEventScope(WaitEvent event) {
  WaitContext* ctx = tls_wait_context;
  Init(event, ctx != nullptr ? ctx->node : -1);
}

WaitEventScope::WaitEventScope(WaitEvent event, int node_override) {
  Init(event, node_override);
}

void WaitEventScope::Init(WaitEvent event, int node) {
  ctx_ = tls_wait_context;
  if (ctx_ == nullptr) return;
  event_ = event;
  node_ = node;
  start_us_ = MonotonicMicros();
  if (ctx_->session != nullptr) {
    // Waits nest (a WAL fsync inside a commit-ack round trip); publish the
    // innermost and restore the outer one on exit.
    prev_event_ = ctx_->session->event.exchange(static_cast<int>(event),
                                                std::memory_order_release);
    prev_start_us_ = ctx_->session->start_us.exchange(start_us_,
                                                      std::memory_order_release);
  }
}

WaitEventScope::~WaitEventScope() {
  if (ctx_ == nullptr) return;
  const int64_t end_us = MonotonicMicros();
  const int64_t elapsed = end_us - start_us_;
  if (ctx_->session != nullptr) {
    ctx_->session->event.store(prev_event_, std::memory_order_release);
    ctx_->session->start_us.store(prev_start_us_, std::memory_order_release);
  }
  if (ctx_->registry != nullptr) {
    ctx_->registry->Record(event_, node_, ctx_->group, elapsed);
  }
  StatementRecord* record = ctx_->record;
  if (record == nullptr) return;
  record->AddWait(event_, elapsed);
  if (record->trace != nullptr) {
    record->trace->AddCompletedSpan(
        std::string("wait:") + WaitEventClassName(ClassOfEvent(event_)) + ":" +
            WaitEventName(event_),
        ctx_->parent_span, node_, start_us_, end_us);
  }
}

}  // namespace gphtap
