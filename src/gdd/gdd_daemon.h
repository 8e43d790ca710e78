// The GDD daemon (Section 4.3): one detection round collects per-node
// wait-for graphs, runs Algorithm 1, re-validates the result against live
// transactions, and terminates the youngest deadlocked transaction. The
// cluster runs a round every gdd_period_us on a PeriodicTask.
#ifndef GPHTAP_GDD_GDD_DAEMON_H_
#define GPHTAP_GDD_GDD_DAEMON_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "gdd/gdd_algorithm.h"
#include "lock/wait_graph.h"

namespace gphtap {

class GddDaemon {
 public:
  /// Callbacks into the cluster. `collect` gathers all local wait-for graphs
  /// (coordinator + segments). `txn_running(gxid)` reports whether the
  /// transaction still exists (the paper's final-state validation: stale graphs
  /// are discarded). `kill(gxid, status)` cancels the victim everywhere.
  struct Hooks {
    std::function<std::vector<LocalWaitGraph>()> collect;
    std::function<bool(uint64_t)> txn_running;
    std::function<void(uint64_t, Status)> kill;
  };

  struct Stats {
    uint64_t runs = 0;
    uint64_t deadlocks_found = 0;
    uint64_t victims_killed = 0;
    uint64_t stale_discards = 0;  // detection discarded because a txn finished
  };

  /// One confirmed deadlock, as recorded at kill time: the validated merged
  /// wait-for graph that survived greedy reduction, plus what was done about
  /// it. Backs the gp_dist_deadlocks system view and DumpDot().
  struct DeadlockRecord {
    uint64_t seq = 0;            // 1-based detection sequence number
    int64_t detected_at_us = 0;  // monotonic timestamp of the kill decision
    uint64_t victim = 0;
    std::string reason;          // the Status message handed to the kill hook
    int iterations = 0;          // reduction sweeps the final run needed
    struct Edge {
      uint64_t waiter = 0;
      uint64_t holder = 0;
      int node = -1;   // where the wait was observed (-1 = coordinator)
      bool dotted = false;
      bool on_cycle = false;  // both endpoints sit on a deadlock cycle
    };
    std::vector<Edge> edges;  // the post-reduction graph, every node merged
  };

  /// `metrics` (optional) registers gdd.rounds / gdd.deadlocks / gdd.victims /
  /// gdd.stale_discards / gdd.edges_collected / gdd.edges_reduced counters.
  explicit GddDaemon(Hooks hooks, MetricsRegistry* metrics = nullptr);

  GddDaemon(const GddDaemon&) = delete;
  GddDaemon& operator=(const GddDaemon&) = delete;

  /// Runs one detection round synchronously (the cluster's periodic pass).
  /// Returns the algorithm result of the final (validated) run.
  GddResult RunOnce();

  Stats stats() const;

  /// The most recent confirmed deadlocks, oldest first (bounded ring).
  std::vector<DeadlockRecord> DeadlockHistory() const;

  /// Graphviz DOT of the last confirmed deadlock's wait-for graph: solid vs
  /// dotted (style=dotted) edges, cycle members outlined, the victim filled
  /// red. Empty string when no deadlock has been recorded yet.
  std::string DumpDot() const;

 private:
  void RecordDeadlock(const GddResult& result, const std::string& reason);

  Hooks hooks_;

  static constexpr size_t kDeadlockHistoryCapacity = 64;

  mutable std::mutex mu_;
  Stats stats_;
  std::deque<DeadlockRecord> deadlock_history_;
  uint64_t next_deadlock_seq_ = 0;
  Counter* m_rounds_ = nullptr;
  Counter* m_deadlocks_ = nullptr;
  Counter* m_victims_ = nullptr;
  Counter* m_stale_discards_ = nullptr;
  Counter* m_edges_collected_ = nullptr;
  Counter* m_edges_reduced_ = nullptr;
};

}  // namespace gphtap

#endif  // GPHTAP_GDD_GDD_DAEMON_H_
