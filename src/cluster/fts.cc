#include "cluster/fts.h"

namespace gphtap {

void FtsDaemon::RunOnce(std::stop_token stop) {
  const int n = hooks_.num_segments();
  if (misses_.size() < static_cast<size_t>(n)) misses_.resize(static_cast<size_t>(n), 0);
  for (int i = 0; i < n && !stop.stop_requested(); ++i) {
    probes_.fetch_add(1, std::memory_order_relaxed);
    if (m_probes_ != nullptr) m_probes_->Add(1);
    if (hooks_.probe(i)) {
      misses_[static_cast<size_t>(i)] = 0;
      continue;
    }
    probe_misses_.fetch_add(1, std::memory_order_relaxed);
    if (m_probe_misses_ != nullptr) m_probe_misses_->Add(1);
    if (++misses_[static_cast<size_t>(i)] < misses_before_failover_) continue;
    misses_[static_cast<size_t>(i)] = 0;
    if (hooks_.can_failover == nullptr || !hooks_.can_failover(i)) continue;
    if (hooks_.failover(i).ok()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      if (m_failovers_ != nullptr) m_failovers_->Add(1);
    } else {
      failed_failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace gphtap
