// Fault Tolerance Service (Section 3.1): a coordinator-side daemon that probes
// every segment over the interconnect, counts consecutive missed probes per
// segment, and — once a primary misses enough probes in a row — promotes its
// mirror. The cluster runs one probe round every fts_period_us on a
// PeriodicTask. Probing and promotion are injected as hooks so the daemon
// stays decoupled from Cluster (and trivially testable).
#ifndef GPHTAP_CLUSTER_FTS_H_
#define GPHTAP_CLUSTER_FTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <stop_token>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace gphtap {

class FtsDaemon {
 public:
  struct Hooks {
    /// Current serving segment count, re-read every probe round so segments
    /// added by online expansion join the probe set.
    std::function<int()> num_segments;
    /// True if segment `i` answered the liveness probe.
    std::function<bool(int)> probe;
    /// True if segment `i` has a promotable mirror.
    std::function<bool(int)> can_failover;
    /// Promotes segment `i`'s mirror. Called from the probe round.
    std::function<Status(int)> failover;
  };

  struct Stats {
    uint64_t probes = 0;
    uint64_t probe_misses = 0;
    uint64_t failovers = 0;
    uint64_t failed_failovers = 0;
  };

  /// Fails a primary over after `misses_before_failover` consecutive missed
  /// probes. `metrics` (optional) registers fts.probes / fts.probe_misses /
  /// fts.failovers counters.
  FtsDaemon(Hooks hooks, int misses_before_failover, MetricsRegistry* metrics = nullptr)
      : hooks_(std::move(hooks)), misses_before_failover_(misses_before_failover) {
    if (metrics != nullptr) {
      m_probes_ = metrics->counter("fts.probes");
      m_probe_misses_ = metrics->counter("fts.probe_misses");
      m_failovers_ = metrics->counter("fts.failovers");
    }
  }

  FtsDaemon(const FtsDaemon&) = delete;
  FtsDaemon& operator=(const FtsDaemon&) = delete;

  /// One probe round over every serving segment; stops between segments
  /// once `stop` is requested.
  void RunOnce(std::stop_token stop);

  Stats stats() const {
    return Stats{probes_.load(std::memory_order_relaxed),
                 probe_misses_.load(std::memory_order_relaxed),
                 failovers_.load(std::memory_order_relaxed),
                 failed_failovers_.load(std::memory_order_relaxed)};
  }

 private:
  const Hooks hooks_;
  const int misses_before_failover_;
  std::vector<int> misses_;  // consecutive misses per segment; rounds never overlap

  Counter* m_probes_ = nullptr;
  Counter* m_probe_misses_ = nullptr;
  Counter* m_failovers_ = nullptr;
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> probe_misses_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> failed_failovers_{0};
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_FTS_H_
