// Shared benchmark setup: the simulated "testbed" configurations standing in
// for the paper's 8-host x 4-segment cluster (see DESIGN.md substitutions),
// and the GPDB5 / GPDB6 / PostgreSQL mode presets.
#ifndef GPHTAP_BENCH_BENCH_COMMON_H_
#define GPHTAP_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/gphtap.h"
#include "common/clock.h"
#include "workload/chbench.h"
#include "workload/driver.h"
#include "workload/htap.h"
#include "workload/tpcb.h"

namespace gphtap {
namespace bench {

/// `--smoke`: CI-sized run — short points, small cluster, first arg of every
/// sweep only. Set by BenchMain before benchmark::Initialize.
inline bool& SmokeFlag() {
  static bool smoke = false;
  return smoke;
}

/// Per-point workload duration; override with GPHTAP_BENCH_MS for longer runs.
inline int64_t PointMs() {
  const char* ms = std::getenv("GPHTAP_BENCH_MS");
  if (ms != nullptr) return std::atoll(ms);
  return SmokeFlag() ? 100 : 800;
}

inline int NumSegments() {
  const char* env = std::getenv("GPHTAP_BENCH_SEGMENTS");
  if (env != nullptr) return std::atoi(env);
  return SmokeFlag() ? 4 : 16;
}

/// Sweep values for one benchmark axis; collapses to the first value under
/// --smoke so every registered series still produces one JSON point.
inline std::vector<int64_t> Points(std::initializer_list<int64_t> all) {
  std::vector<int64_t> v(all);
  if (SmokeFlag() && v.size() > 1) v.resize(1);
  return v;
}

/// GPDB6: all three paper contributions enabled.
inline ClusterOptions Gpdb6Options() {
  ClusterOptions o;
  o.num_segments = NumSegments();
  o.gdd_enabled = true;
  o.one_phase_commit_enabled = true;
  o.direct_dispatch_enabled = true;
  o.gdd_period_us = 20'000;
  o.net_latency_us = 30;  // simulated wire latency per message
  o.fsync_cost_us = 30;   // simulated fsync
  return o;
}

/// GPDB5 baseline: table-level ExclusiveLock for UPDATE/DELETE, always 2PC.
inline ClusterOptions Gpdb5Options() {
  ClusterOptions o = Gpdb6Options();
  o.gdd_enabled = false;
  o.one_phase_commit_enabled = false;
  return o;
}

/// "PostgreSQL": a single-node database — one segment, no interconnect cost.
inline ClusterOptions PostgresOptions() {
  ClusterOptions o = Gpdb6Options();
  o.num_segments = 1;
  o.net_latency_us = 0;
  return o;
}

/// Standard TPC-B sizing for the throughput benches. pgbench-style: enough
/// branches that the branch-row hotspot does not serialize high client counts.
inline TpcbConfig BenchTpcb() {
  TpcbConfig c;
  c.scale = 100;
  c.accounts_per_branch = 200;  // 20k accounts, 1k tellers, 100 branches
  return c;
}

inline void ReportDriver(::benchmark::State& state, const DriverResult& r) {
  state.counters["tps"] = r.Tps();
  state.counters["committed"] = static_cast<double>(r.committed);
  state.counters["aborted"] = static_cast<double>(r.aborted);
  state.counters["p50_us"] = static_cast<double>(r.latency_us.Percentile(50));
  state.counters["p95_us"] = static_cast<double>(r.latency_us.Percentile(95));
  state.counters["p99_us"] = static_cast<double>(r.latency_us.Percentile(99));
}

// ---------------------------------------------------------------------------
// BENCH_<name>.json emission: every binary records one JSON point per
// (series, arg) and writes the file on exit. The google-benchmark State has
// no series-name accessor in this version, so the series string is passed
// explicitly by the registration code.
// ---------------------------------------------------------------------------

using JsonFields = std::vector<std::pair<std::string, double>>;

struct BenchPoint {
  std::string series;
  int64_t arg = 0;
  JsonFields fields;
};

inline std::vector<BenchPoint>& JsonPoints() {
  static std::vector<BenchPoint> points;
  return points;
}

inline void RecordPoint(std::string series, int64_t arg, JsonFields fields) {
  static std::mutex mu;
  std::lock_guard<std::mutex> g(mu);
  // Google-benchmark re-runs a benchmark while tuning its iteration count;
  // keep only the final (longest, most settled) measurement per (series, arg).
  for (BenchPoint& p : JsonPoints()) {
    if (p.series == series && p.arg == arg) {
      p.fields = std::move(fields);
      return;
    }
  }
  JsonPoints().push_back(BenchPoint{std::move(series), arg, std::move(fields)});
}

/// The required keys: throughput + latency percentiles + commit counts.
inline void AddDriverFields(const DriverResult& r, JsonFields* fields) {
  fields->push_back({"throughput_tps", r.Tps()});
  fields->push_back({"p50_us", static_cast<double>(r.latency_us.Percentile(50))});
  fields->push_back({"p95_us", static_cast<double>(r.latency_us.Percentile(95))});
  fields->push_back({"p99_us", static_cast<double>(r.latency_us.Percentile(99))});
  fields->push_back({"committed", static_cast<double>(r.committed)});
  fields->push_back({"aborted", static_cast<double>(r.aborted)});
}

/// Non-zero subsystem counters from Cluster::StatsSnapshot(), as `ctr.<name>`.
inline void AddClusterCounters(Cluster* cluster, JsonFields* fields) {
  MetricsSnapshot snap = cluster->StatsSnapshot();
  for (const auto& [name, value] : snap.counters) {
    if (value != 0) fields->push_back({"ctr." + name, static_cast<double>(value)});
  }
}

/// Driver point: benchmark counters + JSON point in one call.
inline void ReportPoint(::benchmark::State& state, const std::string& series,
                        int64_t arg, const DriverResult& r, Cluster* cluster,
                        JsonFields extra = {}) {
  ReportDriver(state, r);
  JsonFields fields;
  AddDriverFields(r, &fields);
  for (auto& e : extra) fields.push_back(std::move(e));
  if (cluster != nullptr) AddClusterCounters(cluster, &fields);
  RecordPoint(series, arg, std::move(fields));
}

inline void WriteBenchJson(const std::string& bench_name) {
  std::string path = "BENCH_" + bench_name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n  \"points\": [\n",
               bench_name.c_str(), SmokeFlag() ? "true" : "false");
  const auto& points = JsonPoints();
  for (size_t i = 0; i < points.size(); ++i) {
    const BenchPoint& p = points[i];
    std::fprintf(f, "    {\"series\": \"%s\", \"arg\": %lld", p.series.c_str(),
                 static_cast<long long>(p.arg));
    for (const auto& [key, value] : p.fields) {
      double v = std::isfinite(value) ? value : 0.0;
      std::fprintf(f, ", \"%s\": %.6g", key.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu points)\n", path.c_str(), points.size());
}

/// Shared main: strips --smoke, registers, runs, writes BENCH_<name>.json.
inline int BenchMain(int argc, char** argv, const std::string& json_name,
                     void (*register_all)()) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      SmokeFlag() = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  if (register_all != nullptr) register_all();
  ::benchmark::Initialize(&filtered_argc, args.data());
  ::benchmark::RunSpecifiedBenchmarks();
  WriteBenchJson(json_name);
  ::benchmark::Shutdown();
  return 0;
}

/// Micro-benchmark point: per-iteration latency histogram -> the same
/// required keys as the driver-based benches. `lat` counts in units of
/// 1 / `lat_per_us` microseconds (1000 for a histogram of nanoseconds); the
/// percentiles are emitted in fractional microseconds.
inline void RecordMicroPoint(const std::string& series, int64_t arg,
                             const Histogram& lat, double seconds,
                             Cluster* cluster = nullptr, int64_t lat_per_us = 1) {
  auto us = [&](double p) {
    return static_cast<double>(lat.Percentile(p)) / static_cast<double>(lat_per_us);
  };
  JsonFields fields;
  fields.push_back({"throughput_tps",
                    seconds > 0 ? static_cast<double>(lat.count()) / seconds : 0});
  fields.push_back({"p50_us", us(50)});
  fields.push_back({"p95_us", us(95)});
  fields.push_back({"p99_us", us(99)});
  fields.push_back({"iterations", static_cast<double>(lat.count())});
  if (cluster != nullptr) AddClusterCounters(cluster, &fields);
  RecordPoint(series, arg, std::move(fields));
}

/// Runs the benchmark loop timing every iteration; one JSON point on return.
/// Throughput is computed from the accumulated *active* per-iteration time,
/// not the wall clock of the whole loop: under a capped/short run the harness
/// overhead between iterations (KeepRunning bookkeeping, timer reads) is a
/// visible fraction of the loop and used to deflate fast series the most —
/// precisely the vectorized kernels this file exists to compare. Iterations
/// are timed in nanoseconds: whole microseconds would count every iteration
/// under 1 us as free.
/// `setup`, when given, runs untimed before every timed `fn`.
template <typename Setup, typename Fn>
inline void RunMicro(::benchmark::State& state, const std::string& series,
                     int64_t arg, Setup&& setup, Fn&& fn) {
  Histogram lat_ns;
  int64_t active_ns = 0;
  for (auto _ : state) {
    setup();
    Stopwatch sw;
    fn();
    int64_t ns = sw.ElapsedNanos();
    active_ns += ns;
    lat_ns.Record(ns);
  }
  RecordMicroPoint(series, arg, lat_ns, static_cast<double>(active_ns) / 1e9, nullptr,
                   /*lat_per_us=*/1000);
}

template <typename Fn>
inline void RunMicro(::benchmark::State& state, const std::string& series,
                     int64_t arg, Fn&& fn) {
  RunMicro(state, series, arg, [] {}, std::forward<Fn>(fn));
}

}  // namespace bench
}  // namespace gphtap

#endif  // GPHTAP_BENCH_BENCH_COMMON_H_
