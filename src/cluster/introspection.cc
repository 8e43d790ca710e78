// Cluster observability surfaces: system-view row production (the execution
// half of catalog/system_views.h), the retained-trace ring, and Chrome
// trace_event export. Everything here reads live state through snapshot APIs;
// none of it blocks a running session.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "catalog/system_views.h"
#include "cluster/cluster.h"
#include "common/clock.h"

namespace gphtap {

namespace {

Datum Str(const char* s) { return Datum(std::string(s)); }
Datum Int(int64_t v) { return Datum(v); }
Datum Uint(uint64_t v) { return Datum(static_cast<int64_t>(v)); }

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

void Cluster::RetainTrace(std::shared_ptr<Trace> trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> g(traces_mu_);
  retained_traces_.push_back(std::move(trace));
  while (retained_traces_.size() > kRetainedTraceCapacity) {
    retained_traces_.pop_front();
  }
}

std::vector<std::shared_ptr<Trace>> Cluster::RetainedTraces() const {
  std::lock_guard<std::mutex> g(traces_mu_);
  return {retained_traces_.begin(), retained_traces_.end()};
}

std::string Cluster::ChromeTraceJson() const {
  // Chrome trace_event "X" (complete) events: one per span, pid = the query's
  // trace id, tid = the node (segment index; -1 = coordinator). Perfetto and
  // about:tracing then lay each query out as its own process row.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& trace : RetainedTraces()) {
    for (const TraceSpan& span : trace->Spans()) {
      int64_t end_us = span.end_us == 0 ? span.start_us : span.end_us;
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\":\"";
      AppendJsonEscaped(&out, span.name);
      out += "\",\"cat\":\"query\",\"ph\":\"X\"";
      out += ",\"ts\":" + std::to_string(span.start_us);
      out += ",\"dur\":" + std::to_string(std::max<int64_t>(0, end_us - span.start_us));
      out += ",\"pid\":" + std::to_string(trace->trace_id());
      out += ",\"tid\":" + std::to_string(span.node);
      out += ",\"args\":{\"span_id\":" + std::to_string(span.span_id);
      out += ",\"parent_id\":" + std::to_string(span.parent_id);
      out += ",\"rows\":" + std::to_string(span.rows);
      out += std::string(",\"aborted\":") + (span.aborted ? "true" : "false");
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

Status Cluster::DumpChromeTrace(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f.is_open()) return Status::Internal("cannot open " + path);
  f << ChromeTraceJson();
  f.close();
  if (!f) return Status::Internal("short write to " + path);
  return Status::OK();
}

StatusOr<std::vector<Row>> Cluster::SystemViewRows(TableId view_id) {
  std::vector<Row> rows;
  switch (static_cast<SystemViewId>(view_id)) {
    case SystemViewId::kStatActivity: {
      int64_t now = MonotonicMicros();
      for (const auto& s : sessions_.Snapshot()) {
        int ev = s->wait.event.load(std::memory_order_acquire);
        int64_t start = s->wait.start_us.load(std::memory_order_acquire);
        std::string cls, name;
        int64_t wait_us = 0;
        if (ev != 0) {
          WaitEvent we = static_cast<WaitEvent>(ev);
          cls = WaitEventClassName(ClassOfEvent(we));
          name = WaitEventName(we);
          wait_us = std::max<int64_t>(0, now - start);
        }
        int64_t deadline = s->deadline_us.load(std::memory_order_acquire);
        int64_t deadline_remaining = deadline == 0 ? -1 : deadline - now;
        rows.push_back(Row{
            Int(s->id), Datum(s->role()), Datum(s->group()),
            Uint(s->gxid.load(std::memory_order_acquire)),
            Str(SessionStateName(
                static_cast<SessionState>(s->state.load(std::memory_order_acquire)))),
            Datum(std::move(cls)), Datum(std::move(name)), Int(wait_us),
            Datum(s->query()), Int(deadline_remaining),
            Int(s->retries.load(std::memory_order_acquire)),
            Int(s->queue_depth.load(std::memory_order_acquire))});
      }
      return rows;
    }
    case SystemViewId::kLocks: {
      auto add = [&](const std::vector<LockManager::LockInfo>& infos) {
        for (const auto& li : infos) {
          rows.push_back(Row{Int(li.node), Str(LockObjectTypeName(li.tag.type)),
                             Int(li.tag.rel), Uint(li.tag.obj),
                             Str(LockModeName(li.mode)), Uint(li.gxid),
                             Int(li.granted ? 1 : 0)});
        }
      };
      add(coordinator_locks_.SnapshotLocks());
      const int n = num_segments();
      for (int i = 0; i < n; ++i) {
        add(segments_[static_cast<size_t>(i)]->locks().SnapshotLocks());
      }
      return rows;
    }
    case SystemViewId::kResgroupStatus: {
      for (const auto& group : resgroups_.ListGroups()) {
        ResourceGroup::OverloadStats os = group->overload_stats();
        rows.push_back(Row{Datum(group->name()), Int(group->config().concurrency),
                           Int(group->active()), Datum(group->config().cpu_rate_limit),
                           Int(group->config().memory_limit_mb), Int(os.queued_now),
                           Uint(os.queued_total), Uint(os.shed),
                           Uint(os.admission_timeouts)});
      }
      return rows;
    }
    case SystemViewId::kSegmentStatus: {
      for (const SegmentHealthInfo& info : Health().segments) {
        rows.push_back(Row{Int(info.index), Int(info.up ? 1 : 0),
                           Int(info.has_mirror ? 1 : 0),
                           Int(info.mirror_promoted ? 1 : 0),
                           Uint(info.mirror_applied), Uint(info.change_log_size),
                           Uint(info.ao_live_rows), Uint(info.ao_dead_rows),
                           Uint(info.ao_reclaimed_groups)});
      }
      return rows;
    }
    case SystemViewId::kWaitEvents: {
      for (const auto& e : wait_events_.Snapshot()) {
        rows.push_back(Row{Str(WaitEventClassName(ClassOfEvent(e.event))),
                           Str(WaitEventName(e.event)), Int(e.node), Datum(e.group),
                           Uint(e.count), Int(e.total_us), Int(e.max_us),
                           Int(e.histogram.Percentile(95))});
      }
      return rows;
    }
    case SystemViewId::kDistDeadlocks: {
      if (gdd_ == nullptr) return rows;
      for (const auto& rec : gdd_->DeadlockHistory()) {
        for (const auto& edge : rec.edges) {
          rows.push_back(Row{Uint(rec.seq), Int(rec.detected_at_us), Uint(rec.victim),
                             Uint(edge.waiter), Uint(edge.holder), Int(edge.node),
                             Str(edge.dotted ? "dotted" : "solid"),
                             Int(edge.on_cycle ? 1 : 0), Int(rec.iterations),
                             Datum(rec.reason)});
        }
      }
      return rows;
    }
    case SystemViewId::kDeltaStatus: {
      const int n = num_segments();
      for (int i = 0; i < n; ++i) {
        DeltaIndex* di = delta_index(i);
        Segment* seg = segment(i);
        if (di == nullptr || seg == nullptr) continue;
        ChangeLog* log = seg->change_log();
        const int64_t log_size =
            log == nullptr ? 0 : static_cast<int64_t>(log->size());
        const int64_t applied = static_cast<int64_t>(di->applied());
        const int64_t lag = std::max<int64_t>(0, log_size - applied);
        for (const DeltaIndex::TableStatus& ts : di->TableStatuses()) {
          rows.push_back(Row{Int(i), Datum(ts.name), Int(log_size), Int(applied),
                             Int(lag), Uint(ts.stats.open_rows),
                             Uint(ts.stats.sealed_groups), Uint(ts.stats.sealed_rows),
                             Uint(ts.stats.freed_groups), Uint(ts.stats.deletes),
                             Uint(ts.stats.pending_frees)});
        }
      }
      return rows;
    }
    case SystemViewId::kStatStatements: {
      for (const auto& e : statement_stats_.Snapshot()) {
        std::string top_wait;
        if (e.top_wait != WaitEvent::kNone) {
          top_wait = std::string(WaitEventClassName(ClassOfEvent(e.top_wait))) +
                     ":" + WaitEventName(e.top_wait);
        }
        rows.push_back(Row{Datum(e.fingerprint), Uint(e.calls), Uint(e.rows),
                           Uint(e.errors), Uint(e.timeouts), Uint(e.retries),
                           Uint(e.plan_cache_hits), Int(e.total_us), Int(e.min_us),
                           Int(e.max_us), Int(e.p95_us), Int(e.gang_p95_us),
                           Uint(e.vec_batches), Uint(e.vec_fallbacks),
                           Uint(e.exec_cpu_ns), Uint(e.net_bytes),
                           Uint(e.buffer_hits), Uint(e.buffer_misses),
                           Datum(std::move(top_wait)), Int(e.top_wait_us)});
      }
      return rows;
    }
    case SystemViewId::kStatHistory: {
      for (const MetricsHistory::Row& r : metrics_history_.Rows()) {
        rows.push_back(Row{Int(r.tick), Int(r.at_us), Datum(r.metric),
                           Int(r.value), Int(r.delta)});
      }
      return rows;
    }
    case SystemViewId::kStatProgress: {
      for (const auto& s : progress_.SnapshotAll()) {
        rows.push_back(Row{Int(s.op_id), Str(ProgressOpName(s.op)),
                           Datum(s.target), Int(s.node), Datum(s.phase),
                           Int(s.units_done), Int(s.units_total),
                           Int(s.elapsed_us), Int(s.finished ? 1 : 0)});
      }
      return rows;
    }
    case SystemViewId::kMetrics: {
      MetricsSnapshot snap = StatsSnapshot();
      for (const auto& [name, value] : snap.counters) {
        rows.push_back(Row{Datum(name), Str("counter"), Uint(value)});
      }
      for (const auto& [name, value] : snap.gauges) {
        rows.push_back(Row{Datum(name), Str("gauge"), Int(value)});
      }
      return rows;
    }
    case SystemViewId::kBackgroundTasks: {
      const int64_t now = MonotonicMicros();
      for (const auto& task : tasks_) {
        PeriodicTask::Stats s = task->stats();
        rows.push_back(Row{Datum(task->name()), Int(task->period_us()), Uint(s.runs),
                           Int(s.runs == 0 ? -1 : now - s.last_start_us),
                           Int(s.last_run_us), Int(s.durations.Percentile(95))});
      }
      return rows;
    }
  }
  return Status::NotFound("no system view with id " + std::to_string(view_id));
}

}  // namespace gphtap
