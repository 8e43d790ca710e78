#include "stats/statement_stats.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace gphtap {

namespace {
constexpr const char* kOverflowKey = "<overflow>";
}  // namespace

void StatementStatsRegistry::Record(const std::string& fingerprint,
                                    const StatementRecord& record,
                                    const StatementOutcome& outcome) {
  const Histogram slices = record.slice_histogram();
  const std::vector<StatementRecord::Wait> waits =
      record.TopWaits(std::numeric_limits<size_t>::max());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    const std::string key = entries_.size() >= capacity_ ? kOverflowKey : fingerprint;
    it = entries_.try_emplace(key).first;
    it->second.fingerprint = key;
  }
  Entry& e = it->second;
  e.calls += 1;
  if (!outcome.ok) e.errors += 1;
  if (outcome.timed_out) e.timeouts += 1;
  e.retries += outcome.retries;
  if (record.plan_cache_hit) e.plan_cache_hits += 1;
  e.rows += outcome.rows;
  e.total_us += outcome.elapsed_us;
  if (e.calls == 1 || outcome.elapsed_us < e.min_us) e.min_us = outcome.elapsed_us;
  if (outcome.elapsed_us > e.max_us) e.max_us = outcome.elapsed_us;
  e.latency.Record(outcome.elapsed_us);
  e.gang_slices.Merge(slices);
  e.vec_batches += record.vec_batches.load(std::memory_order_relaxed);
  e.vec_fallbacks += record.vec_fallbacks.load(std::memory_order_relaxed);
  e.exec_cpu_ns += record.exec_cpu_ns.load(std::memory_order_relaxed);
  e.net_bytes += record.net_bytes.load(std::memory_order_relaxed);
  e.buffer_hits += record.buffer_hits.load(std::memory_order_relaxed);
  e.buffer_misses += record.buffer_misses.load(std::memory_order_relaxed);
  for (const StatementRecord::Wait& w : waits) {
    const int64_t total = e.wait_us[w.event] += w.total_us;
    if (total > e.top_wait_us) {
      e.top_wait = w.event;
      e.top_wait_us = total;
    }
  }
}

std::vector<StatementStatsRegistry::Entry> StatementStatsRegistry::Snapshot()
    const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [fp, e] : entries_) out.push_back(e);
  }
  for (Entry& e : out) {
    e.p95_us = e.latency.Percentile(95.0);
    e.gang_p95_us = e.gang_slices.Percentile(95.0);
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.fingerprint < b.fingerprint;
  });
  return out;
}

void StatementStatsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace gphtap
