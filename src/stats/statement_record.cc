#include "stats/statement_record.h"

#include <algorithm>

namespace gphtap {

void StatementRecord::ChargeSlice(int64_t cpu_ns, int64_t wall_us) {
  exec_cpu_ns.fetch_add(static_cast<uint64_t>(cpu_ns), std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(mu_);
  slices_.Record(wall_us);
}

void StatementRecord::AddWait(WaitEvent event, int64_t elapsed_us) {
  std::lock_guard<std::mutex> g(mu_);
  Wait& w = waits_[event];
  w.event = event;
  ++w.count;
  w.total_us += elapsed_us;
}

void StatementRecord::AddOperator(int node_id, int64_t rows, int64_t elapsed_us,
                                  int64_t batches) {
  std::lock_guard<std::mutex> g(mu_);
  OperatorActuals& a = operators_[node_id];
  a.rows += rows;
  a.batches += batches;
  ++a.executions;
  a.total_time_us += elapsed_us;
  a.max_time_us = std::max(a.max_time_us, elapsed_us);
}

void StatementRecord::AddMotionWait(int node_id, int64_t send_wait_us,
                                    int64_t recv_wait_us) {
  std::lock_guard<std::mutex> g(mu_);
  OperatorActuals& a = operators_[node_id];
  a.send_wait_us += send_wait_us;
  a.recv_wait_us += recv_wait_us;
}

void StatementRecord::AddStoreRows(int node_id, const std::string& store, int64_t rows) {
  std::lock_guard<std::mutex> g(mu_);
  operators_[node_id].store_rows[store] += rows;
}

void StatementRecord::AddScanSkips(int node_id, int64_t groups, int64_t leaves) {
  std::lock_guard<std::mutex> g(mu_);
  OperatorActuals& a = operators_[node_id];
  a.groups_skipped += groups;
  a.leaves_skipped += leaves;
}

std::vector<StatementRecord::Wait> StatementRecord::TopWaits(size_t n) const {
  std::vector<Wait> out;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& [event, wait] : waits_) out.push_back(wait);
  }
  std::sort(out.begin(), out.end(),
            [](const Wait& a, const Wait& b) { return a.total_us > b.total_us; });
  if (out.size() > n) out.resize(n);
  return out;
}

Histogram StatementRecord::slice_histogram() const {
  std::lock_guard<std::mutex> g(mu_);
  return slices_;
}

OperatorActuals StatementRecord::Operator(int node_id) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = operators_.find(node_id);
  return it == operators_.end() ? OperatorActuals{} : it->second;
}

void StatementRecord::BeginAnalyze() {
  analyze = true;
  std::lock_guard<std::mutex> g(mu_);
  operators_.clear();
}

void StatementRecord::Reset() {
  fingerprint.clear();
  plan_cache_hit = false;
  for (std::atomic<uint64_t>* c : {&exec_cpu_ns, &net_bytes, &buffer_hits, &buffer_misses,
                                   &vec_batches, &vec_fallbacks}) {
    c->store(0, std::memory_order_relaxed);
  }
  analyze = false;
  trace = nullptr;
  std::lock_guard<std::mutex> g(mu_);
  slices_.Reset();
  waits_.clear();
  operators_.clear();
}

}  // namespace gphtap
