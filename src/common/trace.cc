#include "common/trace.h"

#include <algorithm>
#include <sstream>

#include "common/clock.h"

namespace gphtap {

uint64_t Trace::StartSpan(const std::string& name, uint64_t parent_id, int node) {
  TraceSpan span;
  span.span_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = parent_id;
  span.name = name;
  span.node = node;
  span.start_us = MonotonicMicros();
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(span));
  return spans_.back().span_id;
}

void Trace::EndSpan(uint64_t span_id, int64_t rows) {
  const int64_t now = MonotonicMicros();
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->span_id == span_id) {
      if (it->end_us == 0) {
        it->end_us = now;
        it->rows = rows;
      }
      return;
    }
  }
}

uint64_t Trace::AddCompletedSpan(const std::string& name, uint64_t parent_id,
                                 int node, int64_t start_us, int64_t end_us) {
  TraceSpan span;
  span.span_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = parent_id;
  span.name = name;
  span.node = node;
  span.start_us = start_us;
  span.end_us = end_us;
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(span));
  return spans_.back().span_id;
}

void Trace::CloseOpenSpans(bool mark_aborted) {
  const int64_t now = MonotonicMicros();
  std::lock_guard<std::mutex> g(mu_);
  for (TraceSpan& s : spans_) {
    if (s.end_us == 0) {
      s.end_us = now;
      s.aborted = mark_aborted;
    }
  }
}

std::vector<TraceSpan> Trace::Spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

std::string Trace::ToString() const {
  std::vector<TraceSpan> spans = Spans();
  if (spans.empty()) return "(empty trace)\n";
  int64_t t0 = spans.front().start_us;
  for (const TraceSpan& s : spans) t0 = std::min(t0, s.start_us);

  std::ostringstream out;
  out << "trace " << trace_id_ << ":\n";
  // Render depth-first from the roots; spans_ is append-ordered so children
  // always appear after their parent in the vector.
  auto emit = [&](auto&& self, uint64_t parent, int depth) -> void {
    for (const TraceSpan& s : spans) {
      if (s.parent_id != parent) continue;
      out << std::string(static_cast<size_t>(depth) * 2, ' ') << s.name;
      if (s.node == Trace::kCoordinatorNode) {
        out << " [coordinator]";
      } else {
        out << " [seg " << s.node << "]";
      }
      out << " +" << (s.start_us - t0) << "us";
      if (s.end_us > 0) out << " dur=" << (s.end_us - s.start_us) << "us";
      if (s.rows > 0) out << " rows=" << s.rows;
      if (s.aborted) out << " ABORTED";
      out << "\n";
      self(self, s.span_id, depth + 1);
    }
  };
  emit(emit, 0, 0);
  return out.str();
}

void SlowQueryLog::Record(const std::string& sql, int64_t duration_us, int64_t at_us,
                          std::vector<WaitItem> top_waits, std::string fingerprint,
                          bool plan_cache_hit, uint64_t retries) {
  std::lock_guard<std::mutex> g(mu_);
  entries_.push_back(Entry{sql, duration_us, at_us, std::move(top_waits),
                           std::move(fingerprint), plan_cache_hit, retries});
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> g(mu_);
  return std::vector<Entry>(entries_.begin(), entries_.end());
}

}  // namespace gphtap
