// Attributable wait events (modeled on PostgreSQL's pg_stat_activity wait
// instrumentation): every blocking point in the system — lock-manager queue
// waits, motion send/recv stalls, WAL fsync, 2PC PREPARE / COMMIT PREPARED ack
// waits, resource-group admission, buffer-pool misses — publishes a
// (class, event) tag while it blocks and records the blocked duration when it
// resumes.
//
// The machinery is deliberately ambient: a session thread installs a
// WaitContext (thread-local) at its entry point, and any code below it opens a
// WaitEventScope around an actual block. The scope
//   * publishes the event on the session's SessionWaitState (so gp_stat_activity
//     shows what a stalled session is waiting on, live),
//   * accumulates (count, total, max, histogram) into the cluster-wide
//     WaitEventRegistry keyed by (event, node, resource group), backing
//     gp_wait_events,
//   * accumulates into the statement's StatementRecord (slow-query log top-3
//     waits, gp_stat_statements top wait), and
//   * appends a completed "wait:<event>" child span to the record's Trace, if
//     the statement is traced, so waits appear on the query timeline.
// All sinks are optional; with no context installed a scope is a no-op,
// so library code (tests, benches) never pays for instrumentation it did not
// ask for.
#ifndef GPHTAP_COMMON_WAIT_EVENT_H_
#define GPHTAP_COMMON_WAIT_EVENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace gphtap {

class LockOwner;
class StatementRecord;

enum class WaitEventClass {
  kNone = 0,
  kLock,      // lock-manager queue waits
  kNet,       // motion interconnect send/recv
  kIO,        // WAL fsync, buffer-pool miss
  kIpc,       // 2PC PREPARE / COMMIT PREPARED ack round trips
  kResGroup,  // resource-group admission slot
  kFrontend,  // front-door dispatch queue (statement waiting for a pool worker)
};

enum class WaitEvent {
  kNone = 0,
  kLockRelation,
  kLockTuple,
  kLockTransaction,
  kMotionSend,
  kMotionRecv,
  kWalFsync,
  kBufferRead,
  kPrepareAck,
  kCommitPreparedAck,
  kResGroupSlot,
  kDeltaFreshness,   // merged scan waiting for the delta feed to catch up
  kDeltaSealStall,   // seal daemon parked behind a down/recovering segment
  kFrontendDispatch,  // logical session's statement queued for a pool worker
};

const char* WaitEventClassName(WaitEventClass c);
const char* WaitEventName(WaitEvent e);
WaitEventClass ClassOfEvent(WaitEvent e);

/// Live wait state published on a session (read by gp_stat_activity).
/// Written only by the session's own threads; read by anyone.
struct SessionWaitState {
  std::atomic<int> event{0};           // WaitEvent as int; 0 = not waiting
  std::atomic<int64_t> start_us{0};    // monotonic start of the current wait
};

/// Cluster-wide accumulated wait statistics keyed by (event, node, resource
/// group). Backs the gp_wait_events system view.
class WaitEventRegistry {
 public:
  struct Entry {
    WaitEvent event = WaitEvent::kNone;
    int node = -1;  // segment index, or -1 for the coordinator
    std::string group;
    uint64_t count = 0;
    int64_t total_us = 0;
    int64_t max_us = 0;
    Histogram histogram;
  };

  void Record(WaitEvent event, int node, const std::string& group, int64_t elapsed_us);
  /// Copies of every entry, sorted by (event, node, group).
  std::vector<Entry> Snapshot() const;

 private:
  struct Key {
    int event;
    int node;
    std::string group;
    bool operator<(const Key& o) const {
      if (event != o.event) return event < o.event;
      if (node != o.node) return node < o.node;
      return group < o.group;
    }
  };
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
};

/// Ambient per-thread wait destination. All sinks optional.
struct WaitContext {
  WaitEventRegistry* registry = nullptr;
  SessionWaitState* session = nullptr;
  // The statement's record (stats/statement_record.h): per-event waits, gang
  // resources, operator actuals and the optional trace. Owned by the session;
  // the gang runner copies it into every slice and worker of the statement.
  StatementRecord* record = nullptr;
  uint64_t parent_span = 0;     // parent for wait spans (per thread)
  int node = -1;                // node label for registry + spans (coordinator=-1)
  std::string group;            // resource group name ("" = none/default)
  // Cancellation + statement-deadline handle of the owning transaction, for
  // ambient interruption of blocking points that have no explicit owner
  // parameter (WAL fsync, motion queue waits). The session keeps the owner
  // alive for the statement's duration, so a raw pointer is safe here.
  LockOwner* owner = nullptr;
};

/// Cancellation/deadline state of the ambient owner (OK when none installed).
/// Blocking sites call this between timed waits so a parked thread notices a
/// GDD kill, user cancel, or statement-deadline expiry within one poll chunk.
Status CheckAmbientInterrupt();

/// Poll granularity for interruptible blocking points: every site that can
/// park (motion queues, WAL fsync, lock waits, admission) re-checks its
/// cancel/deadline state at least this often, which bounds how stale a timeout
/// can be observed (the "2x tick granularity" resilience contract).
inline constexpr int64_t kInterruptPollUs = 5000;

/// The thread's installed context, or nullptr. The pointer is mutable: the
/// session updates owner/parent_span in place as a query progresses.
WaitContext* CurrentWaitContext();

/// Installs `ctx` as the thread's wait context for the guard's lifetime and
/// restores the previous one after. With `only_if_absent`, an already-installed
/// context wins and the guard is a no-op — session entry points use this so
/// nested calls (Execute -> ExecuteSelect) install exactly once.
class WaitContextGuard {
 public:
  explicit WaitContextGuard(WaitContext ctx, bool only_if_absent = false);
  ~WaitContextGuard();

  WaitContextGuard(const WaitContextGuard&) = delete;
  WaitContextGuard& operator=(const WaitContextGuard&) = delete;

 private:
  WaitContext ctx_;
  WaitContext* prev_ = nullptr;
  bool installed_ = false;
};

/// RAII around one actual block. Construct only on the slow path (after a
/// non-blocking fast path failed) so unblocked operations stay untouched.
class WaitEventScope {
 public:
  /// Node label defaults to the context's; pass `node_override` where the
  /// blocking site knows better (a segment lock table inside a coordinator
  /// statement).
  explicit WaitEventScope(WaitEvent event);
  WaitEventScope(WaitEvent event, int node_override);
  ~WaitEventScope();

  WaitEventScope(const WaitEventScope&) = delete;
  WaitEventScope& operator=(const WaitEventScope&) = delete;

 private:
  void Init(WaitEvent event, int node);

  WaitContext* ctx_ = nullptr;
  WaitEvent event_ = WaitEvent::kNone;
  int node_ = -1;
  int64_t start_us_ = 0;
  int prev_event_ = 0;
  int64_t prev_start_us_ = 0;
};

}  // namespace gphtap

#endif  // GPHTAP_COMMON_WAIT_EVENT_H_
