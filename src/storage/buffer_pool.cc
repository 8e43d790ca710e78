#include "storage/buffer_pool.h"

#include "common/clock.h"
#include "common/wait_event.h"
#include "stats/statement_record.h"

namespace gphtap {

BufferPool::BufferPool(Options options) : options_(options) {}

void BufferPool::Access(TableId table, uint64_t page) {
  // Ambient per-statement attribution (gp_stat_statements buffer columns):
  // each slice thread's wait context carries the statement's record, so the
  // pool needs no per-call plumbing.
  StatementRecord* record = nullptr;
  if (WaitContext* wc = CurrentWaitContext(); wc != nullptr) record = wc->record;
  bool miss = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    Key key{table, page};
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      ++stats_.hits;
      if (m_hits_ != nullptr) m_hits_->Add(1);
      if (record != nullptr) record->buffer_hits.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    ++stats_.misses;
    if (m_misses_ != nullptr) m_misses_->Add(1);
    if (record != nullptr) record->buffer_misses.fetch_add(1, std::memory_order_relaxed);
    miss = true;
    if (resident_.size() >= options_.capacity_pages && !lru_.empty()) {
      resident_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
      if (m_evictions_ != nullptr) m_evictions_->Add(1);
    }
    lru_.push_front(key);
    resident_[key] = lru_.begin();
  }
  // Pay the I/O cost outside the pool mutex so concurrent hits are not
  // blocked; faults themselves queue on the device when it is a single disk.
  if (miss && options_.miss_cost_us > 0) {
    WaitEventScope wait(WaitEvent::kBufferRead);
    if (options_.single_device) {
      std::lock_guard<std::mutex> io(io_mu_);
      PreciseSleepUs(options_.miss_cost_us);
    } else {
      PreciseSleepUs(options_.miss_cost_us);
    }
  }
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

size_t BufferPool::resident_pages() const {
  std::lock_guard<std::mutex> g(mu_);
  return resident_.size();
}

void BufferPool::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  std::lock_guard<std::mutex> g(mu_);
  m_hits_ = metrics->counter("bufferpool.hits");
  m_misses_ = metrics->counter("bufferpool.misses");
  m_evictions_ = metrics->counter("bufferpool.evictions");
}

}  // namespace gphtap
