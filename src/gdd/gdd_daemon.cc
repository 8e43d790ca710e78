#include "gdd/gdd_daemon.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/clock.h"
#include "common/logging.h"

namespace gphtap {

namespace {
size_t CountEdges(const std::vector<LocalWaitGraph>& graphs) {
  size_t n = 0;
  for (const LocalWaitGraph& g : graphs) n += g.edges.size();
  return n;
}
}  // namespace

GddDaemon::GddDaemon(Hooks hooks, MetricsRegistry* metrics) : hooks_(std::move(hooks)) {
  if (metrics != nullptr) {
    m_rounds_ = metrics->counter("gdd.rounds");
    m_deadlocks_ = metrics->counter("gdd.deadlocks");
    m_victims_ = metrics->counter("gdd.victims");
    m_stale_discards_ = metrics->counter("gdd.stale_discards");
    m_edges_collected_ = metrics->counter("gdd.edges_collected");
    m_edges_reduced_ = metrics->counter("gdd.edges_reduced");
  }
}

GddResult GddDaemon::RunOnce() {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.runs;
  }
  if (m_rounds_ != nullptr) m_rounds_->Add(1);
  std::vector<LocalWaitGraph> graphs = hooks_.collect();
  const size_t edges_in = CountEdges(graphs);
  GddResult result = RunGddAlgorithm(graphs);
  if (m_edges_collected_ != nullptr) m_edges_collected_->Add(edges_in);
  if (m_edges_reduced_ != nullptr) {
    const size_t edges_left = CountEdges(result.remaining);
    m_edges_reduced_->Add(edges_in >= edges_left ? edges_in - edges_left : 0);
  }
  if (!result.deadlock) return result;

  // Collection is asynchronous across nodes; re-validate before acting (the
  // paper: lock the final state, check all remaining transactions still exist,
  // otherwise discard and retry next period). We re-collect and require the
  // detection to reproduce with every implicated transaction still running.
  GddResult second = RunGddAlgorithm(hooks_.collect());
  if (!second.deadlock) {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.stale_discards;
    if (m_stale_discards_ != nullptr) m_stale_discards_->Add(1);
    return second;
  }
  for (uint64_t v : second.cycle_vertices) {
    if (!hooks_.txn_running(v)) {
      std::lock_guard<std::mutex> g(mu_);
      ++stats_.stale_discards;
      if (m_stale_discards_ != nullptr) m_stale_discards_->Add(1);
      return second;
    }
  }

  {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.deadlocks_found;
    ++stats_.victims_killed;
  }
  if (m_deadlocks_ != nullptr) m_deadlocks_->Add(1);
  if (m_victims_ != nullptr) m_victims_->Add(1);
  GPHTAP_LOG(Info) << "GDD: global deadlock detected, killing youngest victim gxid="
                   << second.victim;
  const std::string reason =
      "victim of global deadlock (gxid=" + std::to_string(second.victim) + ")";
  RecordDeadlock(second, reason);
  hooks_.kill(second.victim, Status::DeadlockDetected(reason));
  return second;
}

void GddDaemon::RecordDeadlock(const GddResult& result, const std::string& reason) {
  DeadlockRecord rec;
  rec.detected_at_us = MonotonicMicros();
  rec.victim = result.victim;
  rec.reason = reason;
  rec.iterations = result.iterations;
  std::unordered_set<uint64_t> on_cycle(result.cycle_vertices.begin(),
                                        result.cycle_vertices.end());
  for (const LocalWaitGraph& lg : result.remaining) {
    for (const WaitEdge& e : lg.edges) {
      rec.edges.push_back(DeadlockRecord::Edge{
          e.waiter, e.holder, lg.node_id, e.dotted,
          on_cycle.count(e.waiter) > 0 && on_cycle.count(e.holder) > 0});
    }
  }
  std::lock_guard<std::mutex> g(mu_);
  rec.seq = ++next_deadlock_seq_;
  deadlock_history_.push_back(std::move(rec));
  while (deadlock_history_.size() > kDeadlockHistoryCapacity) {
    deadlock_history_.pop_front();
  }
}

std::vector<GddDaemon::DeadlockRecord> GddDaemon::DeadlockHistory() const {
  std::lock_guard<std::mutex> g(mu_);
  return std::vector<DeadlockRecord>(deadlock_history_.begin(), deadlock_history_.end());
}

std::string GddDaemon::DumpDot() const {
  DeadlockRecord rec;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (deadlock_history_.empty()) return "";
    rec = deadlock_history_.back();
  }
  std::ostringstream out;
  out << "digraph gdd_deadlock_" << rec.seq << " {\n";
  out << "  label=\"global deadlock #" << rec.seq << " victim=" << rec.victim
      << " iterations=" << rec.iterations << "\";\n";
  out << "  node [shape=ellipse];\n";
  // Declare vertices first: the victim filled red, other cycle members outlined.
  std::vector<uint64_t> vertices;
  std::unordered_set<uint64_t> cycle_vertices;
  for (const auto& e : rec.edges) {
    vertices.push_back(e.waiter);
    vertices.push_back(e.holder);
    if (e.on_cycle) {
      cycle_vertices.insert(e.waiter);
      cycle_vertices.insert(e.holder);
    }
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  for (uint64_t v : vertices) {
    out << "  \"" << v << "\" [label=\"gxid " << v << "\"";
    if (v == rec.victim) {
      out << ", style=filled, fillcolor=red";
    } else if (cycle_vertices.count(v) > 0) {
      out << ", color=red";
    }
    out << "];\n";
  }
  for (const auto& e : rec.edges) {
    out << "  \"" << e.waiter << "\" -> \"" << e.holder << "\" [label=\"node "
        << e.node << "\"";
    if (e.dotted) out << ", style=dotted";
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

GddDaemon::Stats GddDaemon::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

}  // namespace gphtap
