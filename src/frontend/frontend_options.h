// Sizing and policy GUCs for the million-session front door (frontend.h).
// Split from frontend.h so ClusterOptions can embed them by value without
// pulling the front door (and with it the session machinery) into cluster.h.
#ifndef GPHTAP_FRONTEND_FRONTEND_OPTIONS_H_
#define GPHTAP_FRONTEND_FRONTEND_OPTIONS_H_

#include <cstdint>

namespace gphtap {

struct FrontDoorOptions {
  // Master switch: when false the cluster builds no front door and
  // Cluster::ConnectLogical fails with kNotSupported. Direct Connect()
  // sessions are unaffected either way.
  bool enabled = false;

  // Fixed pool size: the front door's statement workers, one gang on the
  // cluster's gang runner however many logical sessions are connected.
  int workers = 8;

  // Accept bound: connects beyond this many live logical sessions are shed
  // with kUnavailable + retry-after. 0 = unbounded accept.
  int max_sessions = 100'000;

  // Dispatch bound: statements (of sessions not yet in a transaction) queued
  // for a worker beyond this are shed. Statements of an open transaction are
  // exempt — they must run so the transaction can release its locks — and are
  // also drained first, which keeps the number of concurrently open
  // transactions near the pool size instead of the session count.
  int max_dispatch_queue = 4096;

  // Per-resource-group dispatch backpressure: each group's queued + executing
  // front-door statements are capped at ResourceGroup::DispatchBound(
  // resgroup_max_queue, group_queue_overflow) so overload sheds at the front
  // door instead of tying up pool workers parked in PR 5's admission queue.
  // 0 disables the per-group cap (the global dispatch bound still applies).
  int group_queue_overflow = 4;

  // Idle-session timeout: a session with no statement for this long is closed
  // by the sweeper (its gp_stat_activity entry disappears; the next Submit
  // fails with a retryable kUnavailable so the client reconnects). 0 = never.
  // The sweeper task exists only when this or login_timeout_us is set, and
  // runs every quarter of the shorter timeout, clamped to [1 ms, 50 ms].
  int64_t idle_timeout_us = 0;

  // Login timeout: a session that connects but never runs a statement is
  // closed after this long (half-open connection storm hygiene). 0 = never.
  int64_t login_timeout_us = 0;

  // Base retry-after hint attached to shed responses. The actual hint scales
  // with observed queue pressure so clients pace to the service rate.
  int64_t retry_after_us = 10'000;
};

}  // namespace gphtap

#endif  // GPHTAP_FRONTEND_FRONTEND_OPTIONS_H_
