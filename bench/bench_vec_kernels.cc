// Vectorized kernel microbenchmarks: the batch engine's filter / aggregate /
// end-to-end scan-query paths against their tuple-at-a-time equivalents on
// identical data, the column codecs' decode into typed vectors, and a point
// query that skips the column groups its filter rules out. These
// measure real executor CPU (no simulated per-row charge), the quantity the
// Fig16 VecAblation series scales up.
#include <algorithm>
#include <bit>

#include "bench_common.h"
#include "exec/agg_ops.h"
#include "plan/expr.h"
#include "storage/compression.h"
#include "vec/column_batch.h"
#include "vec/vec_kernels.h"

namespace gphtap {
namespace bench {
namespace {

// col0: int64 ascending, col1: int64 pseudo-random, col2: double.
ColumnBatch MakeBatch(int64_t rows) {
  ColumnBatch b;
  b.Reset(3, static_cast<size_t>(rows));
  Rng rng(42);
  for (int64_t i = 0; i < rows; ++i) {
    b.columns[0].Append(Datum(i));
    b.columns[1].Append(Datum(static_cast<int64_t>(rng.Uniform(1000))));
    b.columns[2].Append(Datum(static_cast<double>(i) * 0.5));
  }
  b.rows = static_cast<size_t>(rows);
  b.SelectAll();
  return b;
}

ExprPtr BenchPredicate() {
  // col1 < 500 AND col0 % 3 != 0 — selective enough to exercise both branches.
  return Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(BinOp::kLt, Expr::Column(1), Expr::Const(Datum(int64_t{500}))),
      Expr::Binary(BinOp::kNe,
                   Expr::Binary(BinOp::kMod, Expr::Column(0),
                                Expr::Const(Datum(int64_t{3}))),
                   Expr::Const(Datum(int64_t{0}))));
}

void BM_FilterVec(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  ExprPtr pred = BenchPredicate();
  RunMicro(state, "VecKernels/Filter/Vectorized", rows, [&] {
    base.SelectAll();
    Status s = VecFilterBatch(*pred, &base);
    if (!s.ok()) std::abort();
    ::benchmark::DoNotOptimize(base.sel.size());
  });
}

void BM_FilterRow(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  std::vector<Row> materialized;
  base.AppendTo(&materialized);
  ExprPtr pred = BenchPredicate();
  RunMicro(state, "VecKernels/Filter/RowEngine", rows, [&] {
    size_t kept = 0;
    for (const Row& row : materialized) {
      auto ok = EvalPredicate(*pred, row);
      if (!ok.ok()) std::abort();
      kept += *ok ? 1 : 0;
    }
    ::benchmark::DoNotOptimize(kept);
  });
}

void BM_AggVec(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  RunMicro(state, "VecKernels/Agg/Vectorized", rows, [&] {
    AggState st;
    VecAggUpdate(AggFunc::kSum, base.columns[1], base.sel, &st);
    ::benchmark::DoNotOptimize(st.isum);
  });
}

void BM_AggRow(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  std::vector<Row> materialized;
  base.AppendTo(&materialized);
  RunMicro(state, "VecKernels/Agg/RowEngine", rows, [&] {
    AggState st;
    for (const Row& row : materialized) {
      AggUpdateValue(AggFunc::kSum, &st, row[1]);
    }
    ::benchmark::DoNotOptimize(st.isum);
  });
}

// Redistribution routing. "RowEngine" is the old VecPartitionBatch behavior —
// materialize a full Row per selected tuple just to hash it — kept here as the
// before/after baseline for the column-direct hashing fix.
void BM_PartitionVec(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  const std::vector<int> hash_cols = {1};
  const int targets = 4;
  // Routing assertion: the column-direct hash must agree with HashRowKey on
  // materialized rows for every tuple, or redistribution would mis-place data.
  {
    std::vector<ColumnBatch> parts;
    Status s = VecPartitionBatch(base, hash_cols, targets, &parts);
    if (!s.ok()) std::abort();
    size_t total = 0;
    for (int t = 0; t < targets; ++t) {
      for (int32_t r : parts[static_cast<size_t>(t)].sel) {
        Row row = parts[static_cast<size_t>(t)].MaterializeRow(r);
        if (static_cast<int>(HashRowKey(row, hash_cols) %
                             static_cast<uint64_t>(targets)) != t) {
          std::abort();
        }
        ++total;
      }
    }
    if (total != static_cast<size_t>(rows)) std::abort();
  }
  RunMicro(state, "VecKernels/Partition/Vectorized", rows, [&] {
    std::vector<ColumnBatch> parts;
    Status s = VecPartitionBatch(base, hash_cols, targets, &parts);
    if (!s.ok()) std::abort();
    ::benchmark::DoNotOptimize(parts[0].rows);
  });
}

void BM_PartitionRow(::benchmark::State& state) {
  int64_t rows = state.range(0);
  ColumnBatch base = MakeBatch(rows);
  const std::vector<int> hash_cols = {1};
  const int targets = 4;
  RunMicro(state, "VecKernels/Partition/RowEngine", rows, [&] {
    std::vector<ColumnBatch> parts(static_cast<size_t>(targets));
    for (auto& p : parts) p.Reset(base.NumColumns(), base.rows / targets + 1);
    for (int32_t r : base.sel) {
      Row row = base.MaterializeRow(r);  // the old per-tuple materialization
      int t = static_cast<int>(HashRowKey(row, hash_cols) %
                               static_cast<uint64_t>(targets));
      parts[static_cast<size_t>(t)].AppendRow(std::move(row));
    }
    ::benchmark::DoNotOptimize(parts[0].rows);
  });
}

// End to end: filtered aggregation over an AO-column table, batch engine
// against row engine, through the full SQL/plan/motion stack.
void RunScanQuery(::benchmark::State& state, const std::string& series,
                  bool vectorized) {
  int64_t rows = state.range(0);
  ClusterOptions options;
  options.num_segments = 2;
  options.vectorized_execution_enabled = vectorized;
  Cluster cluster(options);
  auto session = cluster.Connect();
  auto r = session->Execute(
      "CREATE TABLE vb (k int, v int, w double) WITH (storage=ao_column) "
      "DISTRIBUTED BY (k)");
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return;
  }
  TableDef def = *cluster.LookupTable("vb");
  std::vector<Row> data;
  Rng rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back(Row{Datum(i), Datum(static_cast<int64_t>(rng.Uniform(1000))),
                       Datum(static_cast<double>(i))});
  }
  if (!session->ExecuteInsert(def, data).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  RunMicro(state, series, rows, [&] {
    auto q = session->Execute(
        "SELECT count(*) AS n, sum(v) AS s FROM vb WHERE v < 500");
    if (!q.ok()) std::abort();
    ::benchmark::DoNotOptimize(q->rows);
  });
}

void BM_ScanQueryVec(::benchmark::State& state) {
  RunScanQuery(state, "VecKernels/ScanQuery/Vectorized", true);
}

void BM_ScanQueryRow(::benchmark::State& state) {
  RunScanQuery(state, "VecKernels/ScanQuery/RowEngine", false);
}

// Codec decode, one point per codec (arg = CompressionKind): one sealed
// group's int64 block and double block, 1,024 values each (runs of 4 over 256
// distinct values, no NULLs), decoded into fresh column vectors as a scan
// decodes a group. `ns_per_value` counts both blocks' values; `wrong` counts
// decoded values that differ from the input, and must be 0.
void BM_Decode(::benchmark::State& state) {
  constexpr size_t kRows = ColumnBatch::kDefaultCapacity;
  const auto kind = static_cast<CompressionKind>(state.range(0));
  Rng rng(11);
  std::vector<int64_t> int_table(256);
  std::vector<double> dbl_table(256);
  for (size_t k = 0; k < 256; ++k) {
    int_table[k] = static_cast<int64_t>(rng.Uniform(10'000'000));
    dbl_table[k] = static_cast<double>(rng.Uniform(1'000'000)) / 100;
  }
  ColumnVector ints(TypeId::kInt64), dbls(TypeId::kDouble);
  for (size_t i = 0; i < kRows; ++i) {
    ints.ints.push_back(int_table[i / 4 % 256]);
    dbls.dbls.push_back(dbl_table[i / 4 % 256]);
  }
  CompressedBlock int_block, dbl_block;
  EncodeColumn(kind, ints, kRows, &int_block);
  EncodeColumn(kind, dbls, kRows, &dbl_block);

  Histogram lat_ns;
  int64_t active_ns = 0;
  bool ok = true;
  ColumnVector int_out, dbl_out;
  for (auto _ : state) {
    Stopwatch sw;
    int_out = ColumnVector();
    dbl_out = ColumnVector();
    ok &= DecodeColumn(int_block, &int_out).ok();
    ok &= DecodeColumn(dbl_block, &dbl_out).ok();
    ::benchmark::DoNotOptimize(int_out.ints.data());
    ::benchmark::DoNotOptimize(dbl_out.dbls.data());
    ::benchmark::ClobberMemory();
    const int64_t ns = sw.ElapsedNanos();
    lat_ns.Record(ns);
    active_ns += ns;
  }
  int64_t wrong = 0;
  if (!ok || int_out.tag != ints.tag || dbl_out.tag != dbls.tag ||
      int_out.size() != kRows || dbl_out.size() != kRows) {
    wrong = 2 * kRows;
  } else {
    for (size_t i = 0; i < kRows; ++i) {
      wrong += int_out.IsNull(i) || int_out.ints[i] != ints.ints[i];
      wrong += dbl_out.IsNull(i) ||
               std::bit_cast<uint64_t>(dbl_out.dbls[i]) != std::bit_cast<uint64_t>(dbls.dbls[i]);
    }
  }
  const double iterations = static_cast<double>(lat_ns.count());
  const double ns_per_value =
      iterations > 0 ? static_cast<double>(active_ns) / (iterations * 2 * kRows) : 0;
  auto us = [&](double p) { return static_cast<double>(lat_ns.Percentile(p)) / 1000.0; };
  state.counters["ns_per_value"] = ns_per_value;
  RecordPoint("VecKernels/Decode", state.range(0),
              {{"throughput_tps", active_ns > 0 ? iterations * 1e9 / static_cast<double>(active_ns) : 0},
               {"p50_us", us(50)},
               {"p95_us", us(95)},
               {"p99_us", us(99)},
               {"ns_per_value", ns_per_value},
               {"iterations", iterations},
               {"int_block_bytes", static_cast<double>(int_block.bytes.size())},
               {"double_block_bytes", static_cast<double>(dbl_block.bytes.size())},
               {"wrong", static_cast<double>(wrong)}});
}

// Group skipping: `k = c` over a key-ordered AO-column table of 32 sealed
// groups on one segment, c stepping through the keys (a prepared statement,
// as an OLTP point lookup runs). `groups_skipped` is per query, 31 when only
// the group holding c is read; `wrong` counts queries whose count was not 1,
// and must be 0.
void BM_SkipScan(::benchmark::State& state) {
  const int64_t groups = state.range(0);
  const int64_t rows = groups * static_cast<int64_t>(ColumnBatch::kDefaultCapacity);
  ClusterOptions options;
  options.num_segments = 1;
  Cluster cluster(options);
  auto session = cluster.Connect();
  for (const char* sql : {"CREATE TABLE sk (k int, v int) WITH (storage=ao_column) "
                          "DISTRIBUTED BY (k)",
                          "PREPARE sk_point AS SELECT count(*) FROM sk WHERE k = $1"}) {
    if (auto r = session->Execute(sql); !r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  std::vector<Row> data;
  for (int64_t i = 0; i < rows; ++i) data.push_back(Row{Datum(i), Datum(i % 100)});
  if (!session->ExecuteInsert(*cluster.LookupTable("sk"), data).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const uint64_t skipped_before = cluster.StatsSnapshot().counter("storage.groups_skipped");
  Histogram lat_ns;
  int64_t active_ns = 0;
  int64_t queries = 0;
  int64_t wrong = 0;
  for (auto _ : state) {
    const std::string sql = "EXECUTE sk_point(" + std::to_string(queries * 7919 % rows) + ")";
    Stopwatch sw;
    auto q = session->Execute(sql);
    const int64_t ns = sw.ElapsedNanos();
    lat_ns.Record(ns);
    active_ns += ns;
    ++queries;
    wrong += !q.ok() || q->rows.size() != 1 || q->rows[0][0].int_val() != 1;
  }
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  const double skipped = static_cast<double>(
      cluster.StatsSnapshot().counter("storage.groups_skipped") - skipped_before);
  auto us = [&](double p) { return static_cast<double>(lat_ns.Percentile(p)) / 1000.0; };
  state.counters["groups_skipped"] = skipped / n;
  RecordPoint("VecKernels/SkipScan", groups,
              {{"throughput_tps", active_ns > 0 ? n * 1e9 / static_cast<double>(active_ns) : 0},
               {"p50_us", us(50)},
               {"p95_us", us(95)},
               {"p99_us", us(99)},
               {"ns_per_query", static_cast<double>(active_ns) / n},
               {"iterations", static_cast<double>(queries)},
               {"groups_skipped", skipped / n},
               {"wrong", static_cast<double>(wrong)}});
}

void RegisterAll() {
  for (auto* fn : {BM_FilterVec, BM_FilterRow, BM_AggVec, BM_AggRow,
                   BM_PartitionVec, BM_PartitionRow}) {
    const char* name = fn == BM_FilterVec      ? "VecKernels/Filter/Vectorized"
                       : fn == BM_FilterRow    ? "VecKernels/Filter/RowEngine"
                       : fn == BM_AggVec       ? "VecKernels/Agg/Vectorized"
                       : fn == BM_AggRow       ? "VecKernels/Agg/RowEngine"
                       : fn == BM_PartitionVec ? "VecKernels/Partition/Vectorized"
                                               : "VecKernels/Partition/RowEngine";
    auto* b = ::benchmark::RegisterBenchmark(name, fn);
    for (int64_t rows : Points({4096, 65536})) b->Args({rows});
    b->Unit(::benchmark::kMicrosecond);
  }
  for (auto* fn : {BM_ScanQueryVec, BM_ScanQueryRow}) {
    const char* name = fn == BM_ScanQueryVec ? "VecKernels/ScanQuery/Vectorized"
                                             : "VecKernels/ScanQuery/RowEngine";
    auto* b = ::benchmark::RegisterBenchmark(name, fn);
    for (int64_t rows : Points({20000})) b->Args({rows});
    b->Unit(::benchmark::kMicrosecond);
  }
  auto* decode = ::benchmark::RegisterBenchmark("VecKernels/Decode", BM_Decode);
  for (CompressionKind kind : {CompressionKind::kNone, CompressionKind::kRle,
                               CompressionKind::kDelta, CompressionKind::kDict,
                               CompressionKind::kLz}) {
    decode->Arg(static_cast<int64_t>(kind));
  }
  decode->Unit(::benchmark::kMicrosecond);
  ::benchmark::RegisterBenchmark("VecKernels/SkipScan", BM_SkipScan)
      ->Arg(32)
      ->Unit(::benchmark::kMicrosecond);
}

}  // namespace
}  // namespace bench
}  // namespace gphtap

int main(int argc, char** argv) {
  return gphtap::bench::BenchMain(argc, argv, "vec_kernels",
                                  gphtap::bench::RegisterAll);
}
