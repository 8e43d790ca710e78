// Ablations for the design choices DESIGN.md calls out:
//   * direct dispatch on/off for point selects,
//   * heuristic vs cost-based ("Orca") planning for skewed joins,
//   * AO-column projected scans vs full-width scans,
//   * compression codec throughput,
//   * GDD detection period vs deadlock-abort latency is covered in tests; here
//     we measure the daemon's steady-state overhead at different periods.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "storage/compression.h"

namespace gphtap {
namespace bench {
namespace {

// ---- direct dispatch ----

void BM_PointSelect(benchmark::State& state) {
  bool direct = state.range(0) != 0;
  ClusterOptions options = Gpdb6Options();
  options.direct_dispatch_enabled = direct;
  Cluster cluster(options);
  TpcbConfig config = BenchTpcb();
  if (!LoadTpcb(&cluster, config).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  auto session = cluster.Connect();
  Rng rng(5);
  Histogram lat;
  Stopwatch total;
  for (auto _ : state) {
    Stopwatch sw;
    Status s = RunSelectOnlyTransaction(session.get(), rng, config);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    lat.Record(sw.ElapsedMicros());
  }
  RecordMicroPoint(direct ? "Ablation/PointSelect/direct_dispatch"
                          : "Ablation/PointSelect/broadcast_dispatch",
                   state.range(0), lat, total.ElapsedSeconds(), &cluster);
}
BENCHMARK(BM_PointSelect)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("direct_dispatch")
    ->Unit(benchmark::kMicrosecond);

// ---- planner mode on a skewed join ----

void BM_SkewedJoin(benchmark::State& state) {
  bool orca = state.range(0) != 0;
  ClusterOptions options = Gpdb6Options();
  options.use_orca = orca;
  options.net_latency_us = 0;  // isolate motion volume, not wire latency
  Cluster cluster(options);
  auto session = cluster.Connect();
  session->Execute("CREATE TABLE big (k int, v int) DISTRIBUTED BY (k)");
  session->Execute("CREATE TABLE small (v int, name int) DISTRIBUTED BY (v)");
  session->Execute("INSERT INTO big SELECT i, i % 50 FROM generate_series(1, 20000) i");
  session->Execute("INSERT INTO small SELECT i, i FROM generate_series(0, 49) i");
  Histogram lat;
  Stopwatch total;
  for (auto _ : state) {
    // Join on big.v = small.name: big must move under the heuristic planner;
    // Orca broadcasts the 50-row side instead.
    Stopwatch sw;
    auto r = session->Execute(
        "SELECT count(*) FROM big JOIN small ON big.v = small.name");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    lat.Record(sw.ElapsedMicros());
  }
  state.counters["tuple_msgs"] =
      static_cast<double>(cluster.net().count(MsgKind::kTupleData));
  RecordMicroPoint(orca ? "Ablation/SkewedJoin/orca" : "Ablation/SkewedJoin/heuristic",
                   state.range(0), lat, total.ElapsedSeconds(), &cluster);
}
BENCHMARK(BM_SkewedJoin)->Arg(0)->Arg(1)->ArgName("orca")->Unit(benchmark::kMillisecond);

// ---- AO-column projection ----

void BM_AoColumnScan(benchmark::State& state) {
  bool projected = state.range(0) != 0;
  ClusterOptions options;
  options.num_segments = 4;
  Cluster cluster(options);
  auto session = cluster.Connect();
  session->Execute(
      "CREATE TABLE wide (a int, b text, c text, d text, e int) "
      "WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)");
  {
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20000; ++i) {
      rows.push_back(Row{Datum(i), Datum(std::string(64, 'x')),
                         Datum(std::string(64, 'y')), Datum(std::string(64, 'z')),
                         Datum(i % 7)});
    }
    auto def = cluster.LookupTable("wide");
    session->ExecuteInsert(*def, rows);
  }
  const char* query = projected ? "SELECT sum(e) FROM wide"
                                : "SELECT count(*), min(b), max(c), min(d), sum(e) "
                                  "FROM wide";
  auto total_bytes = [&] {
    uint64_t bytes = 0;
    auto def = cluster.LookupTable("wide");
    for (int i = 0; i < cluster.num_segments(); ++i) {
      bytes += cluster.segment(i)->GetTable(def->id)->BytesScanned();
    }
    return bytes;
  };
  uint64_t before = total_bytes();
  Histogram lat;
  Stopwatch total;
  for (auto _ : state) {
    Stopwatch sw;
    auto r = session->Execute(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    lat.Record(sw.ElapsedMicros());
  }
  state.counters["bytes_per_query"] =
      static_cast<double>(total_bytes() - before) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  RecordMicroPoint(projected ? "Ablation/AoColumnScan/narrow_projection"
                             : "Ablation/AoColumnScan/full_width",
                   state.range(0), lat, total.ElapsedSeconds(), &cluster);
}
BENCHMARK(BM_AoColumnScan)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("narrow_projection")
    ->Unit(benchmark::kMillisecond);

// ---- codec throughput ----

void BM_Compress(benchmark::State& state) {
  auto kind = static_cast<CompressionKind>(state.range(0));
  Rng rng(3);
  ColumnVector values(TypeId::kInt64);
  for (int i = 0; i < 10000; ++i) values.ints.push_back(static_cast<int64_t>(rng.Uniform(64)));
  Histogram lat;
  Stopwatch total;
  for (auto _ : state) {
    Stopwatch sw;
    CompressedBlock block;
    EncodeColumn(kind, values, values.size(), &block);
    benchmark::DoNotOptimize(block);
    state.counters["bytes"] = static_cast<double>(block.bytes.size());
    lat.Record(sw.ElapsedMicros());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  RecordMicroPoint("Ablation/Compress", state.range(0), lat, total.ElapsedSeconds());
}
BENCHMARK(BM_Compress)
    ->Arg(static_cast<int>(CompressionKind::kNone))
    ->Arg(static_cast<int>(CompressionKind::kRle))
    ->Arg(static_cast<int>(CompressionKind::kDelta))
    ->Arg(static_cast<int>(CompressionKind::kDict))
    ->Arg(static_cast<int>(CompressionKind::kLz))
    ->ArgName("codec")
    ->Unit(benchmark::kMicrosecond);

// ---- GDD period overhead on a busy cluster ----

void BM_GddPeriodOverhead(benchmark::State& state) {
  int64_t period_us = state.range(0);
  for (auto _ : state) {
    ClusterOptions options = Gpdb6Options();
    options.gdd_period_us = period_us;
    Cluster cluster(options);
    TpcbConfig config = BenchTpcb();
    if (!LoadTpcb(&cluster, config).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    DriverOptions opts;
    opts.num_clients = 50;
    opts.duration_ms = PointMs();
    DriverResult r = RunWorkload(&cluster, opts, [&](Session* s, Rng& rng) {
      return RunUpdateOnlyTransaction(s, rng, config);
    });
    state.counters["gdd_runs"] = static_cast<double>(cluster.gdd()->stats().runs);
    ReportPoint(state, "Ablation/GddPeriodOverhead", period_us, r, &cluster);
  }
}
BENCHMARK(BM_GddPeriodOverhead)
    ->Arg(1'000)
    ->Arg(20'000)
    ->Arg(500'000)
    ->ArgName("period_us")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "ablations", nullptr);
}
