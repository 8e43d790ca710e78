// Unit tests for the stats subsystem: fingerprint normalization (literals,
// $N params, whitespace/case, PREPARE unwrapping), the per-execution statement
// record (concurrent recording from a gang's threads; the TSan build exercises
// the locking), the cumulative per-fingerprint statement registry, the
// metrics-history ring, and the maintenance-progress registry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "stats/fingerprint.h"
#include "stats/metrics_history.h"
#include "stats/progress.h"
#include "stats/statement_record.h"
#include "stats/statement_stats.h"

namespace gphtap {
namespace {

// ---------------------------------------------------------------------------
// FingerprintSql
// ---------------------------------------------------------------------------

TEST(FingerprintTest, LiteralsBecomeNumberedPlaceholders) {
  EXPECT_EQ(FingerprintSql("SELECT * FROM t WHERE a = 5 AND b = 'x'"),
            "select * from t where a = $1 and b = $2");
  EXPECT_EQ(FingerprintSql("INSERT INTO t VALUES (1, 2.5, 'three')"),
            "insert into t values($1, $2, $3)");
}

TEST(FingerprintTest, WhitespaceAndCaseDoNotMatter) {
  std::string canonical = FingerprintSql("select c1 from t1 where c1 = 7");
  EXPECT_EQ(FingerprintSql("SELECT   c1\n FROM\tT1  WHERE c1 = 99"), canonical);
  EXPECT_EQ(FingerprintSql("Select C1 From t1 Where C1 = 0;"), canonical);
}

TEST(FingerprintTest, DifferentLiteralsCollideDifferentShapesDoNot) {
  std::string a = FingerprintSql("UPDATE t SET c = 1 WHERE k = 10");
  std::string b = FingerprintSql("UPDATE t SET c = 2 WHERE k = 20");
  std::string c = FingerprintSql("UPDATE t SET c = 1 WHERE k = 10 AND j = 0");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FingerprintTest, DollarParamsRenumberIntoTheSameSequence) {
  // $N params and literals share one placeholder sequence, so the literal and
  // prepared forms of the same statement produce the same fingerprint.
  EXPECT_EQ(FingerprintSql("select * from t where a = $2 and b = $1"),
            "select * from t where a = $1 and b = $2");
  EXPECT_EQ(FingerprintSql("select * from t where a = $1 and b = 42"),
            FingerprintSql("select * from t where a = 7 and b = $1"));
}

TEST(FingerprintTest, PrepareFingerprintsAsTheInnerStatement) {
  EXPECT_EQ(FingerprintSql("PREPARE p1 AS SELECT * FROM t WHERE a = $1"),
            FingerprintSql("SELECT * FROM t WHERE a = 42"));
  EXPECT_EQ(FingerprintSql("prepare plan2 as insert into t values ($1, $2)"),
            FingerprintSql("INSERT INTO t VALUES (5, 6)"));
}

TEST(FingerprintTest, LexerRejectedInputFallsBackToCollapsedRaw) {
  // Unterminated string literal: the lexer refuses, so the fingerprint is the
  // lowercased, whitespace-collapsed raw text (stable, just not normalized).
  std::string fp = FingerprintSql("SELECT  'oops");
  EXPECT_EQ(fp, "select 'oops");
}

// ---------------------------------------------------------------------------
// StatementRecord
// ---------------------------------------------------------------------------

TEST(StatementRecordTest, TopWaitsSortByTotalTimeAndResetClears) {
  StatementRecord record;
  record.AddWait(WaitEvent::kLockTuple, 10);
  record.AddWait(WaitEvent::kLockTuple, 10);
  record.AddWait(WaitEvent::kMotionRecv, 500);
  record.AddWait(WaitEvent::kWalFsync, 100);
  record.AddWait(WaitEvent::kBufferRead, 1);

  std::vector<StatementRecord::Wait> top = record.TopWaits(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].event, WaitEvent::kMotionRecv);
  EXPECT_EQ(top[1].event, WaitEvent::kWalFsync);
  EXPECT_EQ(top[2].event, WaitEvent::kLockTuple);
  EXPECT_EQ(top[2].count, 2u);

  record.Reset();
  EXPECT_TRUE(record.TopWaits(3).empty());
}

// A gang's slices and commit fan-out charge one record from many
// threads at once; every part must come out exact.
TEST(StatementRecordTest, ConcurrentRecordingIsExact) {
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  StatementRecord record;
  record.BeginAnalyze();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&record, t] {
      for (int i = 0; i < kOps; ++i) {
        record.AddWait(i % 2 == 0 ? WaitEvent::kLockTuple : WaitEvent::kMotionSend, 3);
        record.buffer_hits.fetch_add(1, std::memory_order_relaxed);
        record.net_bytes.fetch_add(2, std::memory_order_relaxed);
        record.vec_batches.fetch_add(1, std::memory_order_relaxed);
        record.AddOperator(t % 2, 1, 5, 1);
        record.AddStoreRows(t % 2, "heap", 1);
        record.AddMotionWait(t % 2, 1, 2);
        record.ChargeSlice(100, 10);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr int64_t kTotal = int64_t{kThreads} * kOps;
  std::vector<StatementRecord::Wait> waits = record.TopWaits(10);
  ASSERT_EQ(waits.size(), 2u);
  for (const StatementRecord::Wait& w : waits) {
    EXPECT_EQ(w.count, static_cast<uint64_t>(kTotal / 2));
    EXPECT_EQ(w.total_us, kTotal / 2 * 3);
  }
  EXPECT_EQ(record.buffer_hits.load(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(record.net_bytes.load(), static_cast<uint64_t>(2 * kTotal));
  EXPECT_EQ(record.vec_batches.load(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(record.exec_cpu_ns.load(), static_cast<uint64_t>(100 * kTotal));
  EXPECT_EQ(record.slice_histogram().count(), kTotal);
  int64_t rows = 0, executions = 0, store_rows = 0, send_wait = 0, recv_wait = 0;
  for (int node = 0; node < 2; ++node) {
    OperatorActuals a = record.Operator(node);
    rows += a.rows;
    executions += a.executions;
    store_rows += a.store_rows["heap"];
    send_wait += a.send_wait_us;
    recv_wait += a.recv_wait_us;
    EXPECT_EQ(a.batches, kTotal / 2);
    EXPECT_EQ(a.total_time_us, kTotal / 2 * 5);
    EXPECT_EQ(a.max_time_us, 5);
  }
  EXPECT_EQ(rows, kTotal);
  EXPECT_EQ(executions, kTotal);
  EXPECT_EQ(store_rows, kTotal);
  EXPECT_EQ(send_wait, kTotal);
  EXPECT_EQ(recv_wait, 2 * kTotal);
}

TEST(StatementRecordTest, ResetClearsEveryPart) {
  Trace trace(1);
  StatementRecord record;
  record.fingerprint = "select $1";
  record.plan_cache_hit = true;
  record.trace = &trace;
  record.BeginAnalyze();
  for (std::atomic<uint64_t>* c :
       {&record.exec_cpu_ns, &record.net_bytes, &record.buffer_hits, &record.buffer_misses,
        &record.vec_batches, &record.vec_fallbacks}) {
    c->store(7);
  }
  record.ChargeSlice(5, 50);
  record.AddWait(WaitEvent::kWalFsync, 9);
  record.AddOperator(1, 10, 20, 2);
  record.AddMotionWait(2, 3, 4);
  record.AddStoreRows(1, "heap", 10);

  record.Reset();
  EXPECT_TRUE(record.fingerprint.empty());
  EXPECT_FALSE(record.plan_cache_hit);
  EXPECT_EQ(record.trace, nullptr);
  EXPECT_FALSE(record.analyze);
  for (const std::atomic<uint64_t>* c :
       {&record.exec_cpu_ns, &record.net_bytes, &record.buffer_hits, &record.buffer_misses,
        &record.vec_batches, &record.vec_fallbacks}) {
    EXPECT_EQ(c->load(), 0u);
  }
  EXPECT_EQ(record.slice_histogram().count(), 0);
  EXPECT_TRUE(record.TopWaits(10).empty());
  for (int node : {1, 2}) {
    OperatorActuals a = record.Operator(node);
    EXPECT_EQ(a.rows, 0);
    EXPECT_EQ(a.executions, 0);
    EXPECT_EQ(a.send_wait_us, 0);
    EXPECT_TRUE(a.store_rows.empty());
  }
}

// A real slice's CPU time is the thread's, not its wall time: a slice that
// sleeps charges its full wall time to the histogram and almost no CPU.
TEST(StatementRecordTest, SliceScopeChargesThreadCpuNotWallTime) {
  StatementRecord record;
  {
    StatementRecord::SliceScope charge(&record);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LT(record.exec_cpu_ns.load(), 25'000'000u);
  EXPECT_EQ(record.slice_histogram().count(), 1);
  EXPECT_GE(record.slice_histogram().max(), 45'000);
  { StatementRecord::SliceScope none(nullptr); }  // no record: a no-op
}

// ---------------------------------------------------------------------------
// StatementStatsRegistry
// ---------------------------------------------------------------------------

TEST(StatementStatsTest, AccumulatesCallsRowsAndLatency) {
  StatementStatsRegistry reg;
  StatementRecord r1;
  StatementOutcome s1;
  s1.rows = 10;
  s1.elapsed_us = 100;
  reg.Record("select $1", r1, s1);

  StatementRecord r2;
  StatementOutcome s2;
  s2.rows = 5;
  s2.elapsed_us = 300;
  r2.plan_cache_hit = true;
  s2.retries = 2;
  reg.Record("select $1", r2, s2);

  auto entries = reg.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const auto& e = entries[0];
  EXPECT_EQ(e.fingerprint, "select $1");
  EXPECT_EQ(e.calls, 2u);
  EXPECT_EQ(e.rows, 15u);
  EXPECT_EQ(e.total_us, 400);
  EXPECT_EQ(e.min_us, 100);
  EXPECT_EQ(e.max_us, 300);
  EXPECT_GT(e.p95_us, 0);
  EXPECT_EQ(e.plan_cache_hits, 1u);
  EXPECT_EQ(e.retries, 2u);
  EXPECT_EQ(e.errors, 0u);
}

TEST(StatementStatsTest, ErrorsAndTimeoutsAreBucketed) {
  StatementStatsRegistry reg;
  StatementRecord record;
  StatementOutcome err;
  err.ok = false;
  reg.Record("f", record, err);
  StatementOutcome to;
  to.ok = false;
  to.timed_out = true;
  reg.Record("f", record, to);

  auto entries = reg.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].calls, 2u);
  EXPECT_EQ(entries[0].errors, 2u);
  EXPECT_EQ(entries[0].timeouts, 1u);
}

TEST(StatementStatsTest, GangResourcesAndTopWaitAggregate) {
  StatementStatsRegistry reg;
  StatementRecord res;
  res.exec_cpu_ns.fetch_add(1'000'000);
  res.net_bytes.fetch_add(4096);
  res.buffer_hits.fetch_add(8);
  res.buffer_misses.fetch_add(2);
  res.vec_batches.fetch_add(3);
  res.vec_fallbacks.fetch_add(1);
  res.ChargeSlice(0, 50);
  res.ChargeSlice(0, 500);

  StatementOutcome s;
  s.elapsed_us = 600;
  for (int i = 0; i < 3; ++i) res.AddWait(WaitEvent::kLockRelation, 300);
  res.AddWait(WaitEvent::kMotionSend, 100);
  reg.Record("q", res, s);
  reg.Record("q", res, s);  // second call doubles everything

  auto entries = reg.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const auto& e = entries[0];
  EXPECT_EQ(e.exec_cpu_ns, 2'000'000u);
  EXPECT_EQ(e.net_bytes, 8192u);
  EXPECT_EQ(e.buffer_hits, 16u);
  EXPECT_EQ(e.buffer_misses, 4u);
  EXPECT_EQ(e.vec_batches, 6u);
  EXPECT_EQ(e.vec_fallbacks, 2u);
  // Per-slice wall times merged across calls via Histogram::Merge: the p95
  // reflects the slow slice, not the per-call average.
  EXPECT_GE(e.gang_p95_us, 400);
  EXPECT_EQ(e.top_wait, WaitEvent::kLockRelation);
  EXPECT_EQ(e.top_wait_us, 1800);
}

TEST(StatementStatsTest, CapacityOverflowSpillsIntoOneBucket) {
  StatementStatsRegistry reg(/*capacity=*/2);
  StatementRecord r;
  StatementOutcome s;
  s.elapsed_us = 1;
  reg.Record("a", r, s);
  reg.Record("b", r, s);
  reg.Record("c", r, s);
  reg.Record("d", r, s);

  auto entries = reg.Snapshot();
  ASSERT_EQ(entries.size(), 3u);  // a, b, <overflow>
  uint64_t overflow_calls = 0;
  for (const auto& e : entries) {
    if (e.fingerprint == "<overflow>") overflow_calls = e.calls;
  }
  EXPECT_EQ(overflow_calls, 2u);
}

TEST(StatementStatsTest, SnapshotSortsByTotalTimeDescending) {
  StatementStatsRegistry reg;
  StatementRecord r;
  StatementOutcome cheap;
  cheap.elapsed_us = 10;
  StatementOutcome expensive;
  expensive.elapsed_us = 10'000;
  reg.Record("cheap", r, cheap);
  reg.Record("expensive", r, expensive);
  auto entries = reg.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fingerprint, "expensive");
  EXPECT_EQ(entries[1].fingerprint, "cheap");
}

TEST(StatementStatsTest, ResetClears) {
  StatementStatsRegistry reg;
  reg.Record("x", StatementRecord(), StatementOutcome());
  reg.Reset();
  EXPECT_TRUE(reg.Snapshot().empty());
}

// ---------------------------------------------------------------------------
// MetricsHistory
// ---------------------------------------------------------------------------

TEST(MetricsHistoryTest, DeltasAreComputedAgainstThePreviousTick) {
  MetricsHistory hist(/*capacity=*/10);
  MetricsSnapshot snap;
  snap.counters["txn.commits"] = 5;
  hist.Capture(snap, 1000);
  snap.counters["txn.commits"] = 12;
  hist.Capture(snap, 2000);

  auto rows = hist.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tick, 0u);
  EXPECT_EQ(rows[0].value, 5);
  EXPECT_EQ(rows[0].delta, 5);
  EXPECT_EQ(rows[1].tick, 1u);
  EXPECT_EQ(rows[1].at_us, 2000);
  EXPECT_EQ(rows[1].value, 12);
  EXPECT_EQ(rows[1].delta, 7);
}

TEST(MetricsHistoryTest, ZeroAndUnchangedZeroMetricsAreSkipped) {
  MetricsHistory hist;
  MetricsSnapshot snap;
  snap.counters["always_zero"] = 0;
  snap.counters["live"] = 1;
  hist.Capture(snap, 1);
  auto rows = hist.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].metric, "live");
}

TEST(MetricsHistoryTest, GaugesArePrefixedAndMayGoNegative) {
  MetricsHistory hist;
  MetricsSnapshot snap;
  snap.gauges["pool.free"] = 100;
  hist.Capture(snap, 1);
  snap.gauges["pool.free"] = 40;
  hist.Capture(snap, 2);
  auto rows = hist.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].metric, "gauge:pool.free");
  EXPECT_EQ(rows[1].value, 40);
  EXPECT_EQ(rows[1].delta, -60);
}

TEST(MetricsHistoryTest, RingEvictsOldestButDeltasStayCorrect) {
  MetricsHistory hist(/*capacity=*/2);
  MetricsSnapshot snap;
  for (int i = 1; i <= 4; ++i) {
    snap.counters["c"] = static_cast<uint64_t>(10 * i);
    hist.Capture(snap, i);
  }
  auto rows = hist.Rows();
  ASSERT_EQ(rows.size(), 2u);  // ticks 2 and 3 retained
  EXPECT_EQ(rows[0].tick, 2u);
  EXPECT_EQ(rows[0].value, 30);
  EXPECT_EQ(rows[0].delta, 10);  // vs the evicted tick 1
  EXPECT_EQ(rows[1].tick, 3u);
  EXPECT_EQ(hist.ticks(), 4u);
}

TEST(MetricsHistoryTest, CsvDumpHasHeaderAndRows) {
  MetricsHistory hist;
  MetricsSnapshot snap;
  snap.counters["c"] = 3;
  hist.Capture(snap, 77);
  std::string csv = hist.ToCsv();
  EXPECT_EQ(csv.rfind("tick,at_us,metric,value,delta\n", 0), 0u) << csv;
  EXPECT_NE(csv.find("0,77,c,3,3"), std::string::npos) << csv;
}

// ---------------------------------------------------------------------------
// ProgressRegistry
// ---------------------------------------------------------------------------

TEST(ProgressTest, LiveHandleIsVisibleAndRetiresIntoFinishedRing) {
  ProgressRegistry reg;
  {
    ProgressRegistry::Handle h = reg.Begin(ProgressOp::kVacuum, "t1");
    h.SetTotal(3);
    h.SetPhase("heap");
    h.SetNode(1);
    h.Advance(2);

    auto live = reg.SnapshotAll();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_FALSE(live[0].finished);
    EXPECT_EQ(live[0].op, ProgressOp::kVacuum);
    EXPECT_EQ(live[0].target, "t1");
    EXPECT_EQ(live[0].phase, "heap");
    EXPECT_EQ(live[0].node, 1);
    EXPECT_EQ(live[0].units_done, 2);
    EXPECT_EQ(live[0].units_total, 3);
  }
  auto after = reg.SnapshotAll();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].finished);
  EXPECT_EQ(after[0].units_done, 2);
}

TEST(ProgressTest, PhaseHistoryKeepsOrderAndDedupsConsecutive) {
  ProgressRegistry reg;
  {
    ProgressRegistry::Handle h = reg.Begin(ProgressOp::kRebalance, "t");
    h.SetPhase("copy");
    h.SetPhase("copy");  // consecutive duplicate collapses
    h.SetPhase("cutover");
    h.SetPhase("horizon-wait");
  }
  auto all = reg.SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].phase_history.size(), 3u);
  EXPECT_EQ(all[0].phase_history[0], "copy");
  EXPECT_EQ(all[0].phase_history[1], "cutover");
  EXPECT_EQ(all[0].phase_history[2], "horizon-wait");
}

TEST(ProgressTest, MovedFromHandleIsInertAndOpNamesAreStable) {
  ProgressRegistry reg;
  ProgressRegistry::Handle a = reg.Begin(ProgressOp::kDeltaSeal, "");
  ProgressRegistry::Handle b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  a.Advance();  // must be a harmless no-op
  b.SetPhase("seal");

  EXPECT_STREQ(ProgressOpName(ProgressOp::kVacuum), "vacuum");
  EXPECT_STREQ(ProgressOpName(ProgressOp::kCluster), "cluster");
  EXPECT_STREQ(ProgressOpName(ProgressOp::kRebalance), "rebalance");
  EXPECT_STREQ(ProgressOpName(ProgressOp::kDeltaSeal), "delta-seal");
}

}  // namespace
}  // namespace gphtap
