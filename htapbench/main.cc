// htapbench: runs one workload as fixed, seeded work on a fresh 4-segment
// cluster, checks its results, and prints the metrics as one JSON line.
//
//   htapbench --workload tpcb|ch_olap|ch_htap --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-dir DIR]
//
// --seconds scales the fixed work (sized so that 15 measures about 15 s on a
// quiet 4-vCPU host); the run does the same operations however long they
// take. The work runs in windows with untimed maintenance between them, and
// each timing metric is the median of its per-window values. --trace 0 prints
// the end-to-end metrics; --trace 1 runs the work twice, untraced then traced,
// and prints the per-layer metrics. --tiny runs a few operations per
// workload, for the benchmark's self-check.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "storage/column_store.h"
#include "txn/visibility.h"
#include "vec/column_batch.h"

namespace htapbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir = ".";
};

// --seconds at which the workloads run their nominal operation counts.
constexpr double kBaseSeconds = 15;
constexpr int kSetups = 9;
constexpr int kWindows = 16;

// ---- Host and process probes ----

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq softirq steal.
HostCpu ReadHostCpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return h;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double StealShare(const HostCpu& a, const HostCpu& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0;
}

// VmRSS / VmHWM of this process, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}


// Nanoseconds per iteration of a fixed integer loop on 4 threads (the median
// two), run just outside each window. Host CPU speed moves without any steal
// (another guest on the same cores), and the workloads' timings track this
// figure closely, so the report prints it beside steal for attribution. The
// cluster's background threads share the CPUs while it runs.
double HostLoopNsPerIter() {
  constexpr int kThreads = 4;
  constexpr int64_t kIters = 1'000'000;
  std::vector<double> ns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ns, t] {
      uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(t);
      int64_t t0 = NowNs();
      for (int64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x9E3779B97F4A7C15ULL;
      }
      // Using x keeps the loop from being optimized away.
      ns[static_cast<size_t>(t)] =
          static_cast<double>(NowNs() - t0 + static_cast<int64_t>(x & 1)) / kIters;
    });
  }
  for (auto& t : threads) t.join();
  std::sort(ns.begin(), ns.end());
  return (ns[1] + ns[2]) / 2;
}

// ---- Statistics ----

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear-interpolated percentile (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- One pass: set-up, warm-up, the measured windows, checks ----

struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int stream = 0;
  OpClass cls = OpClass::kOltp;
  bool ok = false;
};

struct ClassWindow {
  double rate = 0;                // completed / class active wall time, 1/s
  std::vector<double> latency_ms;
};

struct WindowStats {
  ClassWindow cls[2];
  int64_t ops = 0;
  double cpu_ms_per_op = 0;
  double wall_s = 0;
  double steal = 0;
  double host_loop_ns = 0;
};

struct PassResult {
  std::vector<WindowStats> windows;
  std::vector<double> setup_s;
  double setup_rss_mb = 0;
  double peak_rss_mb = 0;
  int64_t attempted[2] = {0, 0};
  int64_t failed[2] = {0, 0};
  int64_t retries = 0;
  int64_t deadlock_victims = 0;
  int64_t cpu_ns = 0;
  HostCpu host_start, host_end;
  std::map<std::string, double> counters;  // deltas over the measured windows
  std::map<std::string, double> wait_us;   // per wait event, over the windows
  double versions_per_row = 0;
  std::vector<std::vector<Span>> spans;    // per client (traced pass)
  std::vector<double> decode_ns_per_value; // per sealed group (traced pass)
};

bool Retryable(const Status& s) {
  switch (s.code()) {
    case gphtap::StatusCode::kAborted:
    case gphtap::StatusCode::kDeadlockDetected:
    case gphtap::StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

std::map<std::string, double> WaitTotals(Cluster* cluster) {
  std::map<std::string, double> out;
  for (const auto& e : cluster->wait_events().Snapshot()) {
    out[gphtap::WaitEventName(e.event)] += static_cast<double>(e.total_us);
  }
  return out;
}

void AddDelta(const std::map<std::string, double>& before,
              const std::map<std::string, double>& after, std::map<std::string, double>* sum) {
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    (*sum)[k] += v - (it == before.end() ? 0 : it->second);
  }
}

std::map<std::string, double> Counters(Cluster* cluster) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : cluster->StatsSnapshot().counters) out[k] = static_cast<double>(v);
  return out;
}

// Length of the union of [start, end) intervals.
double UnionSeconds(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return static_cast<double>(total) / 1e9;
}

// Class rates and latencies of one window. With more than one stream only the
// operations that end while every stream is still running count, so each
// class is measured beside the other.
void Summarize(const std::vector<OpRecord>& ops, int num_streams, WindowStats* w) {
  int64_t cutoff = INT64_MAX;
  if (num_streams > 1) {
    std::vector<int64_t> last(static_cast<size_t>(num_streams), 0);
    for (const OpRecord& r : ops) {
      int64_t& l = last[static_cast<size_t>(r.stream)];
      l = std::max(l, r.end_ns);
    }
    cutoff = *std::min_element(last.begin(), last.end());
  }
  for (int c = 0; c < 2; ++c) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    ClassWindow& cw = w->cls[c];
    for (const OpRecord& r : ops) {
      if (static_cast<int>(r.cls) != c || !r.ok || r.end_ns > cutoff) continue;
      iv.emplace_back(r.start_ns, r.end_ns);
      cw.latency_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
    double active = UnionSeconds(iv);
    cw.rate = active > 0 ? static_cast<double>(iv.size()) / active : 0;
  }
}

class Runner {
 public:
  Runner(Workload* wl, bool traced, int windows) : wl_(wl), traced_(traced), windows_(windows) {}

  // Returns false (with the reason in error()) when the run must fail.
  bool Run(int setups, PassResult* out) {
    out_ = out;
    std::unique_ptr<Cluster> cluster;
    for (int k = 0; k < setups; ++k) {
      cluster.reset();
      int64_t t0 = NowNs();
      cluster = std::make_unique<Cluster>(wl_->Options());
      Status s = wl_->Load(cluster.get());
      if (!s.ok()) return Fail("set-up: " + s.ToString());
      out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (k == 0) out->setup_rss_mb = ProcStatusMb("VmRSS");
    }
    cluster_ = cluster.get();

    streams_ = wl_->Streams();
    std::vector<std::unique_ptr<Client>> clients;
    for (size_t s = 0; s < streams_.size(); ++s) {
      for (int k = 0; k < streams_[s].clients; ++k) {
        clients.push_back(std::make_unique<Client>(cluster_));
        client_stream_.push_back(static_cast<int>(s));
      }
    }
    // The warm-up runs untraced; a traced pass records only the measured work.
    Status warm = wl_->WarmUp(clients);
    if (!warm.ok()) return Fail("warm-up: " + warm.ToString());
    if (traced_) {
      for (auto& c : clients) {
        logs_.push_back(std::make_unique<SpanLog>());
        c->set_log(logs_.back().get());
      }
    }

    out->host_start = ReadHostCpu();
    for (int w = 0; w < windows_; ++w) {
      if (!RunWindow(w, clients)) return false;
      if (w == windows_ - 1) out->versions_per_row = wl_->VersionsPerRow(cluster_);
      Status s = wl_->BetweenWindows(cluster_);
      if (!s.ok()) return Fail("between windows: " + s.ToString());
    }
    out->host_end = ReadHostCpu();

    Status s = wl_->Check(cluster_, out->attempted[0] - out->failed[0]);
    if (!s.ok()) return Fail("check: " + s.ToString());
    out->peak_rss_mb = ProcStatusMb("VmHWM");
    if (traced_) {
      SpanLog decode_log;
      DecodeSpans(&decode_log);
      for (auto& log : logs_) out->spans.push_back(log->spans());
      out->spans.push_back(decode_log.spans());
    }
    clients.clear();
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    error_ = why;
    return false;
  }

  bool RunWindow(int w, std::vector<std::unique_ptr<Client>>& clients) {
    std::vector<std::atomic<int64_t>> next(streams_.size());
    std::vector<int64_t> end(streams_.size());
    for (size_t s = 0; s < streams_.size(); ++s) {
      next[s].store(streams_[s].ops_per_window * w);
      end[s] = streams_[s].ops_per_window * (w + 1);
    }
    std::vector<std::vector<OpRecord>> records(clients.size());
    std::atomic<bool> fatal{false};
    std::mutex err_mu;
    std::atomic<int64_t> retries{0}, victims{0};

    double loop_before = HostLoopNsPerIter();
    auto counters0 = Counters(cluster_);
    auto waits0 = WaitTotals(cluster_);
    HostCpu host0 = ReadHostCpu();
    int64_t cpu0 = ProcessCpuNs();
    int64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (size_t k = 0; k < clients.size(); ++k) {
      threads.emplace_back([&, k] {
        const int s = client_stream_[k];
        Client& c = *clients[k];
        for (;;) {
          int64_t i = next[static_cast<size_t>(s)].fetch_add(1);
          if (i >= end[static_cast<size_t>(s)] || fatal.load()) break;
          OpRecord r;
          r.stream = s;
          r.start_ns = NowNs();
          Status st;
          for (int attempt = 0;; ++attempt) {
            c.set_op((static_cast<int64_t>(s) << 40) | i);
            SpanScope root(c.log(), kSpanOp, c.op());
            try {
              st = wl_->RunOp(s, i, c, &r.cls);
            } catch (const std::exception& e) {
              st = Status::Internal(std::string("exception: ") + e.what());
            }
            if (st.ok()) break;
            c.Rollback();
            if (!Retryable(st) || attempt == 2) break;
            retries.fetch_add(1);
            if (st.code() == gphtap::StatusCode::kDeadlockDetected) victims.fetch_add(1);
          }
          r.end_ns = NowNs();
          r.ok = st.ok();
          records[k].push_back(r);
          if (!st.ok() && !Retryable(st)) {
            std::lock_guard<std::mutex> g(err_mu);
            if (!fatal.exchange(true)) {
              error_ = "operation " + std::to_string(i) + ": " + st.ToString();
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    int64_t t1 = NowNs();
    int64_t cpu1 = ProcessCpuNs();
    HostCpu host1 = ReadHostCpu();
    AddDelta(counters0, Counters(cluster_), &out_->counters);
    AddDelta(waits0, WaitTotals(cluster_), &out_->wait_us);
    if (fatal.load()) return false;

    std::vector<OpRecord> all;
    for (auto& v : records) all.insert(all.end(), v.begin(), v.end());
    WindowStats ws;
    Summarize(all, static_cast<int>(streams_.size()), &ws);
    ws.ops = static_cast<int64_t>(all.size());
    ws.cpu_ms_per_op =
        ws.ops > 0 ? static_cast<double>(cpu1 - cpu0) / 1e6 / static_cast<double>(ws.ops) : 0;
    ws.wall_s = static_cast<double>(t1 - t0) / 1e9;
    ws.steal = StealShare(host0, host1);
    ws.host_loop_ns = (loop_before + HostLoopNsPerIter()) / 2;
    out_->windows.push_back(std::move(ws));
    out_->cpu_ns += cpu1 - cpu0;
    for (const OpRecord& r : all) {
      out_->attempted[static_cast<int>(r.cls)]++;
      if (!r.ok) out_->failed[static_cast<int>(r.cls)]++;
    }
    out_->retries += retries.load();
    out_->deadlock_victims += victims.load();
    return true;
  }

  // One span per AoColumnTable::DecodeGroupBatch over order_line's sealed
  // groups, decoding every column, three passes (the first warms caches).
  void DecodeSpans(SpanLog* log) {
    auto def = cluster_->LookupTable("order_line");
    if (!def.ok()) return;
    std::vector<int> cols;
    for (size_t c = 0; c < def->schema.num_columns(); ++c) cols.push_back(static_cast<int>(c));
    for (int pass = 0; pass < 3; ++pass) {
      for (int i = 0; i < cluster_->num_segments(); ++i) {
        gphtap::Segment* seg = cluster_->segment(i);
        auto pin = seg->Pin();
        if (!pin.ok()) continue;
        auto* table = dynamic_cast<gphtap::AoColumnTable*>(seg->GetTable(def->id));
        if (table == nullptr) continue;
        gphtap::VisibilityContext ctx;
        ctx.clog = &seg->clog();
        ctx.dlog = &seg->dlog();
        for (size_t g = 0; g < table->NumSealedGroups(); ++g) {
          gphtap::ColumnBatch batch;
          int32_t id = log->Open(kSpanDecode, static_cast<int64_t>(g));
          auto decoded = table->DecodeGroupBatch(g, ctx, cols, &batch);
          log->Close(id);
          const Span& sp = log->spans()[static_cast<size_t>(id)];
          if (pass > 0 && decoded.ok() && *decoded && batch.rows > 0) {
            out_->decode_ns_per_value.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                                                static_cast<double>(batch.rows * cols.size()));
          }
        }
      }
    }
  }

  Workload* const wl_;
  const bool traced_;
  const int windows_;
  PassResult* out_ = nullptr;
  Cluster* cluster_ = nullptr;
  std::vector<Stream> streams_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<int> client_stream_;
  std::string error_;
};

// ---- Output ----

class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) { Raw(key, "\"" + v + "\""); }
  void Raw(const std::string& key, const std::string& v) {
    out_ << (first_ ? "" : ", ") << "\"" << key << "\": " << v;
    first_ = false;
  }
  std::string Done() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Json j;
  for (const Metric& m : metrics) {
    Json v;
    v.Num("value", m.value);
    v.Str("unit", m.unit);
    j.Raw(m.name, v.Done());
  }
  return j.Done();
}

double MedianOverWindows(const PassResult& p, const std::function<double(const WindowStats&)>& f) {
  std::vector<double> v;
  for (const WindowStats& w : p.windows) v.push_back(f(w));
  return Median(v);
}

double ClassPercentile(const PassResult& p, int cls, double pct) {
  return MedianOverWindows(p, [&](const WindowStats& w) {
    return Percentile(w.cls[cls].latency_ms, pct);
  });
}

double ClassRate(const PassResult& p, int cls) {
  return MedianOverWindows(p, [&](const WindowStats& w) { return w.cls[cls].rate; });
}

// The tail percentiles (OLTP p99, OLAP p95) follow host CPU steal so closely
// that no bound would hold them; ReportJson prints them beside the metrics.
std::vector<Metric> EndToEnd(const PassResult& p) {
  return {
      {"oltp_tps", ClassRate(p, 0), "1/s"},
      {"oltp_p50_ms", ClassPercentile(p, 0, 50), "ms"},
      {"olap_qps", ClassRate(p, 1), "1/s"},
      {"olap_p50_ms", ClassPercentile(p, 1, 50), "ms"},
      {"cpu_ms_per_op",
       MedianOverWindows(p, [](const WindowStats& w) { return w.cpu_ms_per_op; }), "ms"},
      {"setup_s", Median(p.setup_s), "s"},
      {"setup_rss_mb", p.setup_rss_mb, "MB"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

// Self time of every span, in microseconds, grouped by span name.
std::vector<std::vector<double>> SelfTimesUs(const PassResult& p) {
  std::vector<std::vector<double>> out(kNumSpanNames);
  for (const auto& log : p.spans) {
    std::vector<int64_t> child(log.size(), 0);
    for (const Span& s : log) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < log.size(); ++i) {
      int64_t self_ns = log[i].end_ns - log[i].start_ns - child[i];
      out[log[i].name].push_back(static_cast<double>(self_ns) / 1e3);
    }
  }
  return out;
}

std::vector<Metric> PerLayer(const PassResult& a, const PassResult& b) {
  auto c = [&](const std::string& k) {
    auto it = a.counters.find(k);
    return it == a.counters.end() ? 0.0 : it->second;
  };
  auto wait = [&](const std::string& k) {
    auto it = a.wait_us.find(k);
    return it == a.wait_us.end() ? 0.0 : it->second;
  };
  auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  const double txns = static_cast<double>(a.attempted[0]);
  const double queries = static_cast<double>(a.attempted[1]);
  const double ops = txns + queries;
  auto self = SelfTimesUs(b);
  auto p50 = [&](SpanName n) { return Percentile(self[n], 50); };
  auto overhead = [&](int cls) {
    double untraced = ClassPercentile(a, cls, 50);
    return untraced > 0 ? (ClassPercentile(b, cls, 50) / untraced - 1) * 100 : 0.0;
  };
  const double lookups = c("plan_cache.hits") + c("plan_cache.misses");
  const double commits = c("txn.one_phase_commits") + c("txn.two_phase_commits");
  return {
      {"sql.parse_us", p50(kSpanParse), "us"},
      {"sql.bind_us", p50(kSpanBind), "us"},
      {"plan.plan_us", p50(kSpanPlan), "us"},
      {"plan.cache_hit_ratio", per(c("plan_cache.hits"), lookups), "ratio"},
      {"cluster.stmt_us", p50(kSpanStmt), "us"},
      {"cluster.query_us", p50(kSpanQuery), "us"},
      {"txn.commit_us_p50", p50(kSpanCommit), "us"},
      {"txn.commit_us_p99", Percentile(self[kSpanCommit], 99), "us"},
      {"txn.two_phase_share", per(c("txn.two_phase_commits"), commits), "ratio"},
      {"txn.fsyncs_per_txn", per(c("txn.commit_fsyncs") + c("txn.prepare_fsyncs"), txns), "count"},
      {"net.dispatch_msgs_per_op", per(c("net.sent.dispatch"), ops), "count"},
      {"net.prepare_msgs_per_txn", per(c("net.sent.prepare"), txns), "count"},
      {"net.commit_msgs_per_txn", per(c("net.sent.commit"), txns), "count"},
      {"net.tuple_bytes_per_query", per(c("net.tuple_bytes"), queries), "B"},
      {"net.tuple_batches_per_query", per(c("net.tuple_batches"), queries), "count"},
      {"wait.motion_us_per_query", per(wait("motion_send") + wait("motion_recv"), queries), "us"},
      {"wait.ack_us_per_txn", per(wait("prepare_ack") + wait("commit_prepared_ack"), txns), "us"},
      {"lock.acquires_per_txn", per(c("lock.acquires"), txns), "count"},
      {"lock.wait_us_per_txn", per(c("lock.wait_us"), txns), "us"},
      {"gdd.rounds", c("gdd.rounds"), "count"},
      {"gdd.victims_per_ktxn", per(1000 * c("gdd.victims"), txns), "count"},
      {"storage.versions_per_row", a.versions_per_row, "ratio"},
      {"storage.decode_ns_per_value", Percentile(b.decode_ns_per_value, 50), "ns"},
      {"vec.rows_per_query", per(c("vec.rows"), queries), "count"},
      {"vec.batches_per_query", per(c("vec.batches"), queries), "count"},
      {"vec.fallbacks_per_query", per(c("vec.fallbacks"), queries), "count"},
      {"delta.freshness_wait_us_per_query", per(c("delta.freshness_wait_us"), queries), "us"},
      {"delta.fallback_scans", c("delta.fallback_scans"), "count"},
      {"delta.sealed_groups", c("delta.sealed_groups"), "count"},
      {"trace.oltp_overhead_pct", overhead(0), "%"},
      {"trace.olap_overhead_pct", overhead(1), "%"},
  };
}

// Host noise and sample counts beside the metrics, so a reader can tell host
// noise from a program change.
std::string ReportJson(const Args& args, const PassResult& p, const char* pass) {
  Json j;
  j.Str("workload", args.workload);
  j.Str("pass", pass);
  j.Int("seed", static_cast<int64_t>(args.seed));
  j.Num("steal_share", StealShare(p.host_start, p.host_end));
  j.Num("host_loop_ns", MedianOverWindows(p, [](const WindowStats& w) { return w.host_loop_ns; }));
  j.Num("process_cpu_s", static_cast<double>(p.cpu_ns) / 1e9);
  double wall = 0;
  for (const WindowStats& w : p.windows) wall += w.wall_s;
  j.Num("measured_wall_s", wall);
  j.Int("windows", static_cast<int64_t>(p.windows.size()));
  // Each window's figures, from which the metrics take their medians.
  auto series = [&](const std::string& key, const std::function<double(const WindowStats&)>& f) {
    std::ostringstream out;
    char buf[64];
    for (size_t i = 0; i < p.windows.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", f(p.windows[i]));
      out << buf;
    }
    j.Raw(key, "[" + out.str() + "]");
  };
  series("window_steal_share", [](const WindowStats& w) { return w.steal; });
  series("window_host_loop_ns", [](const WindowStats& w) { return w.host_loop_ns; });
  series("window_cpu_ms_per_op", [](const WindowStats& w) { return w.cpu_ms_per_op; });
  auto latency = [](int cls, double pct) {
    return [=](const WindowStats& w) { return Percentile(w.cls[cls].latency_ms, pct); };
  };
  series("window_oltp_tps", [](const WindowStats& w) { return w.cls[0].rate; });
  series("window_oltp_p50_ms", latency(0, 50));
  series("window_oltp_p99_ms", latency(0, 99));
  series("window_olap_qps", [](const WindowStats& w) { return w.cls[1].rate; });
  series("window_olap_p50_ms", latency(1, 50));
  series("window_olap_p95_ms", latency(1, 95));
  j.Num("oltp_p99_ms", ClassPercentile(p, 0, 99));
  j.Num("olap_p95_ms", ClassPercentile(p, 1, 95));
  // Samples behind each window's percentiles (the smallest window's count).
  for (int c = 0; c < 2; ++c) {
    size_t n = SIZE_MAX;
    for (const WindowStats& w : p.windows) n = std::min(n, w.cls[c].latency_ms.size());
    j.Int(c == 0 ? "oltp_samples_per_window" : "olap_samples_per_window",
          n == SIZE_MAX ? 0 : static_cast<int64_t>(n));
    j.Int(c == 0 ? "oltp_attempted" : "olap_attempted", p.attempted[c]);
    j.Int(c == 0 ? "oltp_failed" : "olap_failed", p.failed[c]);
  }
  j.Int("retries", p.retries);
  j.Int("deadlock_victims", p.deadlock_victims);
  std::ostringstream setups;
  for (size_t i = 0; i < p.setup_s.size(); ++i) setups << (i ? ", " : "") << p.setup_s[i];
  j.Raw("setup_s_samples", "[" + setups.str() + "]");
  return j.Done();
}

void WriteSpans(const Args& args, const PassResult& p) {
  std::string path = args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                     ".spans.csv";
  std::ofstream out(path);
  out << "log,id,parent,op,name,start_ns,end_ns\n";
  for (size_t l = 0; l < p.spans.size(); ++l) {
    for (size_t i = 0; i < p.spans[l].size(); ++i) {
      const Span& s = p.spans[l][i];
      out << l << ',' << i << ',' << s.parent << ',' << s.op << ',' << SpanNameString(s.name) << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  std::fprintf(stderr, "htapbench: spans written to %s\n", path.c_str());
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--trace-dir") a->trace_dir = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: htapbench --workload tpcb|ch_olap|ch_htap --seed N --seconds S "
                         "--trace 0|1 [--tiny] [--trace-dir DIR]\n");
    return 2;
  }
  auto wl = MakeWorkload(args.workload, args.seed, args.seconds / kBaseSeconds, args.tiny);
  if (wl == nullptr) {
    std::fprintf(stderr, "htapbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  auto run = [&](bool traced, int setups, PassResult* out) {
    Runner runner(wl.get(), traced, args.tiny ? 2 : kWindows);
    if (runner.Run(setups, out)) return true;
    std::fprintf(stderr, "htapbench: %s failed: %s\n", args.workload.c_str(),
                 runner.error().c_str());
    return false;
  };
  PassResult untraced;
  if (!run(false, args.trace ? 1 : kSetups, &untraced)) return 1;
  std::printf("%s\n", ReportJson(args, untraced, "untraced").c_str());
  std::vector<Metric> metrics;
  if (args.trace) {
    PassResult traced;
    if (!run(true, 1, &traced)) return 1;
    std::printf("%s\n", ReportJson(args, traced, "traced").c_str());
    WriteSpans(args, traced);
    metrics = PerLayer(untraced, traced);
  } else {
    metrics = EndToEnd(untraced);
  }
  Json result;
  result.Raw("correct", "true");
  result.Int("attempted", untraced.attempted[0] + untraced.attempted[1]);
  result.Int("failed", untraced.failed[0] + untraced.failed[1]);
  result.Raw("metrics", MetricsJson(metrics));
  std::printf("%s\n", result.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace htapbench

int main(int argc, char** argv) { return htapbench::Main(argc, argv); }
