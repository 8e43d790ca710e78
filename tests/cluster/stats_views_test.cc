// End-to-end tests for the stats system views, queried through the normal SQL
// path: gp_stat_statements accumulates normalized fingerprints with latency +
// gang-aggregated resources, gp_stat_history snapshots the metrics registry
// on a period, gp_stat_progress reports live + finished maintenance ops, and
// gp_metrics dumps the raw registry. Includes a concurrent-sessions hammer
// (writers + view readers) sized for the TSan tier-1 subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "api/gphtap.h"
#include "common/clock.h"

namespace gphtap {
namespace {

ClusterOptions StatsCluster() {
  ClusterOptions o;
  o.num_segments = 3;
  return o;
}

int64_t SingleInt(const StatusOr<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->rows.empty() || r->rows[0][0].is_null()) return -1;
  return r->rows[0][0].int_val();
}

TEST(StatsViewsTest, StatStatementsAccumulatesNormalizedFingerprints) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  // Same statement shape, different literals and spacing: one fingerprint.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i * 2) + ")")
                    .ok());
  }
  ASSERT_TRUE(s->Execute("SELECT count(*) FROM t1 WHERE c1 > 3").ok());
  ASSERT_TRUE(s->Execute("select COUNT(*)  from t1 where c1 > 7").ok());

  auto r = s->Execute(
      "SELECT fingerprint, calls, rows, total_us, p95_us, errors "
      "FROM gp_stat_statements");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_insert = false, saw_select = false;
  for (const Row& row : r->rows) {
    const std::string& fp = row[0].string_val();
    if (fp == "insert into t1 values($1, $2)") {
      saw_insert = true;
      EXPECT_EQ(row[1].int_val(), 10);  // calls
      EXPECT_EQ(row[2].int_val(), 10);  // one affected row per insert
      EXPECT_GT(row[3].int_val(), 0);   // total_us
      EXPECT_GE(row[4].int_val(), 0);   // p95_us
      EXPECT_EQ(row[5].int_val(), 0);   // errors
    }
    if (fp == "select count(*) from t1 where c1 > $1") {
      saw_select = true;
      EXPECT_EQ(row[1].int_val(), 2) << "case/space variants must collide";
      EXPECT_EQ(row[2].int_val(), 2);  // one result row per call
    }
  }
  EXPECT_TRUE(saw_insert) << "no insert fingerprint found";
  EXPECT_TRUE(saw_select) << "no select fingerprint found";

  // A failing statement lands in the errors column under its own fingerprint.
  ASSERT_FALSE(s->Execute("SELECT c1 / (c1 - c1) FROM t1").ok());
  r = s->Execute("SELECT errors FROM gp_stat_statements "
                 "WHERE fingerprint = 'select c1 /(c1 - c1) from t1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u) << "failed statement must still be fingerprinted";
  EXPECT_EQ(r->rows[0][0].int_val(), 1);
}

TEST(StatsViewsTest, GangResourcesAreNonZeroAfterDistributedWork) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE big (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO big VALUES (" + std::to_string(i) + ", 1)").ok());
  }
  // Distributed scans: every segment runs a slice and motions rows up.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s->Execute("SELECT c1, c2 FROM big").ok());
  }

  auto r = s->Execute(
      "SELECT calls, exec_cpu_ns, net_bytes, gang_p95_us "
      "FROM gp_stat_statements WHERE fingerprint = 'select c1, c2 from big'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 5);
  EXPECT_GT(r->rows[0][1].int_val(), 0) << "gang CPU must be attributed";
  EXPECT_GT(r->rows[0][2].int_val(), 0) << "motion bytes must be attributed";
  EXPECT_GE(r->rows[0][3].int_val(), 0);
}

// exec_cpu_ns is the thread CPU time of the statement's slices and DML
// workers, not their wall time: an UPDATE parked about 200 ms behind another
// session's row lock shows the wait in total_us and almost none of it as CPU.
TEST(StatsViewsTest, ExecCpuIsThreadCpuTimeNotLockWait) {
  Cluster cluster(StatsCluster());
  auto holder = cluster.Connect();
  auto waiter = cluster.Connect();
  ASSERT_TRUE(holder->Execute("CREATE TABLE acct (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(holder->Execute("INSERT INTO acct VALUES (1, 0)").ok());
  ASSERT_TRUE(holder->Execute("BEGIN").ok());
  ASSERT_TRUE(holder->Execute("UPDATE acct SET v = 1 WHERE k = 1").ok());
  std::thread blocked([&] {
    EXPECT_TRUE(waiter->Execute("UPDATE acct SET v = v + 10 WHERE k = 1").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(holder->Execute("COMMIT").ok());
  blocked.join();

  auto r = holder->Execute("SELECT fingerprint, calls, total_us, exec_cpu_ns "
                           "FROM gp_stat_statements");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Row* update = nullptr;
  for (const Row& row : r->rows) {
    if (row[0].string_val().rfind("update acct set v = v", 0) == 0) update = &row;
  }
  ASSERT_NE(update, nullptr) << "no fingerprint for the blocked UPDATE";
  EXPECT_EQ((*update)[1].int_val(), 1);
  const int64_t total_us = (*update)[2].int_val();
  const int64_t exec_cpu_ns = (*update)[3].int_val();
  EXPECT_GE(total_us, 150'000) << "the UPDATE did not wait behind the row lock";
  EXPECT_GT(exec_cpu_ns, 0);
  EXPECT_LT(exec_cpu_ns, total_us * 1000 / 4) << "exec_cpu_ns counted the lock wait";
}

TEST(StatsViewsTest, PreparedStatementsMapOntoTheLiteralFingerprint) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1, 10), (2, 20), (3, 30)").ok());

  // Literal form once, then PREPARE + repeated EXECUTE: all five calls must
  // accumulate under one fingerprint. The predicate targets c2 (not the
  // distribution key), so PREPARE takes the generic plan and every EXECUTE
  // reuses it — the prepared-statement analogue of a plan-cache hit.
  ASSERT_TRUE(s->Execute("SELECT c1 FROM t1 WHERE c2 = 10").ok());
  ASSERT_TRUE(s->Execute("PREPARE q AS SELECT c1 FROM t1 WHERE c2 = $1").ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(s->Execute("EXECUTE q(" + std::to_string(i * 10) + ")").ok());
  }

  auto r = s->Execute(
      "SELECT calls, plan_cache_hits FROM gp_stat_statements "
      "WHERE fingerprint = 'select c1 from t1 where c2 = $1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u) << "EXECUTE must share the literal row";
  // 1 literal + 1 PREPARE + 3 EXECUTE = 5 calls on the shared fingerprint.
  EXPECT_EQ(r->rows[0][0].int_val(), 5);
  EXPECT_EQ(r->rows[0][1].int_val(), 3) << "every EXECUTE reuses the generic plan";
}

// A prepared UPDATE and SELECT pinned on the indexed distribution key run
// PREPARE's plan on every EXECUTE (a plan-cache hit each) and dispatch to the
// key's one segment.
TEST(StatsViewsTest, PreparedKeyLookupsReusePlanAndDispatchOnce) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE acct (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(s->Execute("CREATE INDEX ON acct (k)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO acct SELECT i, 0 FROM generate_series(1, 30) i").ok());
  ASSERT_TRUE(s->Execute("PREPARE upd AS UPDATE acct SET v = v + $1 WHERE k = $2").ok());
  ASSERT_TRUE(s->Execute("PREPARE sel AS SELECT v FROM acct WHERE k = $1").ok());
  auto dispatches = [&] { return cluster.StatsSnapshot().counter("net.sent.dispatch"); };
  constexpr int kExecutes = 5;
  for (int k = 1; k <= kExecutes; ++k) {
    uint64_t before = dispatches();
    auto upd = s->Execute("EXECUTE upd(7, " + std::to_string(k) + ")");
    ASSERT_TRUE(upd.ok()) << upd.status().ToString();
    EXPECT_EQ(upd->affected, 1);
    EXPECT_EQ(dispatches(), before + 1) << "UPDATE k=" << k;
    before = dispatches();
    EXPECT_EQ(SingleInt(s->Execute("EXECUTE sel(" + std::to_string(k) + ")")), 7);
    EXPECT_EQ(dispatches(), before + 1) << "SELECT k=" << k;
  }
  for (const char* fp : {"update acct set v = v + $1 where k = $2",
                         "select v from acct where k = $1"}) {
    auto r = s->Execute(std::string("SELECT calls, plan_cache_hits FROM gp_stat_statements "
                                    "WHERE fingerprint = '") + fp + "'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << fp;
    EXPECT_EQ(r->rows[0][0].int_val(), kExecutes + 1) << fp;  // PREPARE + EXECUTEs
    EXPECT_EQ(r->rows[0][1].int_val(), kExecutes) << fp;
  }
}

TEST(StatsViewsTest, StatsDisabledRecordsNothing) {
  ClusterOptions o = StatsCluster();
  o.stats_enabled = false;
  Cluster cluster(o);
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1)").ok());
  EXPECT_EQ(SingleInt(s->Execute("SELECT count(*) FROM gp_stat_statements")), 0);
}

TEST(StatsViewsTest, MetricsViewDumpsCountersAndGauges) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1)").ok());

  EXPECT_GT(SingleInt(s->Execute("SELECT count(*) FROM gp_metrics")), 0);
  EXPECT_GT(SingleInt(s->Execute(
                "SELECT count(*) FROM gp_metrics WHERE kind = 'counter'")),
            0);
  // The commit just made must be visible as a nonzero counter.
  auto r = s->Execute("SELECT value FROM gp_metrics WHERE name = 'txn.committed'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GT(r->rows[0][0].int_val(), 0);
}

TEST(StatsViewsTest, HistoryDaemonSnapshotsOnPeriodAndDumpsCsv) {
  ClusterOptions o = StatsCluster();
  o.stats_history_period_us = 10'000;
  Cluster cluster(o);
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (" + std::to_string(i) + ")").ok());
  }
  // Let the daemon take a few ticks.
  const int64_t deadline = MonotonicMicros() + 2'000'000;
  while (cluster.metrics_history().ticks() < 3 && MonotonicMicros() < deadline) {
    PreciseSleepUs(5'000);
  }
  ASSERT_GE(cluster.metrics_history().ticks(), 3u) << "history daemon never ticked";

  EXPECT_GT(SingleInt(s->Execute("SELECT count(*) FROM gp_stat_history")), 0);
  // The commit counter's trajectory is queryable: some tick recorded a
  // positive delta while the inserts were running.
  EXPECT_GT(SingleInt(s->Execute(
                "SELECT count(*) FROM gp_stat_history "
                "WHERE metric = 'txn.committed' AND delta > 0")),
            0);

  std::string path = ::testing::TempDir() + "/gphtap_history.csv";
  ASSERT_TRUE(cluster.DumpHistoryCsv(path).ok());
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "tick,at_us,metric,value,delta");
  std::stringstream rest;
  rest << f.rdbuf();
  EXPECT_NE(rest.str().find("txn.committed"), std::string::npos);
}

TEST(StatsViewsTest, ManualHistoryTicksWorkWithoutDaemon) {
  Cluster cluster(StatsCluster());  // stats_history_period_us = 0: no daemon
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  cluster.CaptureHistoryTick();
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1)").ok());
  cluster.CaptureHistoryTick();
  auto r = s->Execute(
      "SELECT tick, value, delta FROM gp_stat_history "
      "WHERE metric = 'txn.committed' AND tick = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GT(r->rows[0][2].int_val(), 0);
}

TEST(StatsViewsTest, VacuumAndClusterReportFinishedProgress) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (" + std::to_string(i) + ", 1)").ok());
  }
  ASSERT_TRUE(s->Execute("DELETE FROM t1 WHERE c1 < 10").ok());
  ASSERT_TRUE(s->Execute("VACUUM t1").ok());
  ASSERT_TRUE(s->Execute("CLUSTER t1 USING c1").ok());

  auto r = s->Execute(
      "SELECT kind, target, phase, units_done, units_total, finished "
      "FROM gp_stat_progress WHERE finished = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_vacuum = false, saw_cluster = false;
  for (const Row& row : r->rows) {
    const std::string& kind = row[0].string_val();
    if (kind == "vacuum" && row[1].string_val() == "t1") {
      saw_vacuum = true;
      EXPECT_EQ(row[3].int_val(), cluster.num_segments());  // units_done
      EXPECT_EQ(row[4].int_val(), cluster.num_segments());  // units_total
      EXPECT_FALSE(row[2].string_val().empty()) << "vacuum must record a phase";
    }
    if (kind == "cluster" && row[1].string_val() == "t1") {
      saw_cluster = true;
      EXPECT_EQ(row[2].string_val(), "rewrite");
      EXPECT_EQ(row[3].int_val(), cluster.num_segments());
    }
  }
  EXPECT_TRUE(saw_vacuum) << "VACUUM left no finished progress entry";
  EXPECT_TRUE(saw_cluster) << "CLUSTER left no finished progress entry";
}

// Mid-flight progress: poll gp_stat_progress from a second session while a
// large REBALANCE TABLE runs, and require (a) at least one unfinished
// rebalance sample and (b) visibly advancing units across samples.
TEST(StatsViewsTest, RebalanceProgressAdvancesWhileRunning) {
  Cluster cluster(StatsCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE big (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  {
    auto def = cluster.LookupTable("big");
    ASSERT_TRUE(def.ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 40'000; ++i) {
      rows.push_back(Row{Datum(i), Datum(i % 97)});
    }
    ASSERT_TRUE(s->ExecuteInsert(*def, rows).ok());
  }
  ASSERT_TRUE(cluster.AddSegments(2).ok());

  std::atomic<bool> done{false};
  std::thread mover([&] {
    auto worker = cluster.Connect();
    auto report = worker->RebalanceTable("big");
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    done.store(true);
  });

  auto observer = cluster.Connect();
  std::vector<int64_t> live_units;
  std::vector<std::string> live_phases;
  while (!done.load()) {
    auto r = observer->Execute(
        "SELECT units_done, phase FROM gp_stat_progress "
        "WHERE kind = 'rebalance' AND finished = 0");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const Row& row : r->rows) {
      live_units.push_back(row[0].int_val());
      live_phases.push_back(row[1].string_val());
    }
  }
  mover.join();

  ASSERT_FALSE(live_units.empty()) << "never observed the rebalance mid-flight";
  // Units advanced while we watched: the max sample exceeds the min.
  EXPECT_GT(*std::max_element(live_units.begin(), live_units.end()),
            *std::min_element(live_units.begin(), live_units.end()))
      << "units_done never advanced across " << live_units.size() << " samples";

  // The finished entry retired with the full copy -> cutover -> horizon-wait
  // phase trail and a nonzero unit count.
  bool finished_seen = false;
  for (const auto& snap : cluster.progress().SnapshotAll()) {
    if (snap.op != ProgressOp::kRebalance || !snap.finished) continue;
    finished_seen = true;
    EXPECT_GT(snap.units_done, 0);
    ASSERT_GE(snap.phase_history.size(), 2u);
    EXPECT_EQ(snap.phase_history[0], "copy");
    EXPECT_EQ(snap.phase_history.back(), "horizon-wait");
  }
  EXPECT_TRUE(finished_seen);
}

TEST(StatsViewsTest, DeltaSealDaemonPublishesLiveProgress) {
  ClusterOptions o = StatsCluster();
  o.delta_store_enabled = true;
  o.delta_seal_period_us = 5'000;
  Cluster cluster(o);
  auto s = cluster.Connect();
  // The daemon thread registers its progress handle on startup; poll briefly
  // so the assertion does not race the thread's first instructions.
  const std::string q =
      "SELECT kind, phase, finished FROM gp_stat_progress "
      "WHERE kind = 'delta-seal'";
  auto r = s->Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int64_t deadline = MonotonicMicros() + 2'000'000;
  while (r->rows.empty() && MonotonicMicros() < deadline) {
    PreciseSleepUs(1'000);
    r = s->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GE(r->rows.size(), 1u) << "seal daemon must be registered while running";
  EXPECT_EQ(r->rows[0][1].string_val(), "seal");
  EXPECT_EQ(r->rows[0][2].int_val(), 0) << "daemon-lifetime op is never finished";
}

TEST(StatsViewsTest, SlowQueryLogCarriesFingerprintAndCacheBit) {
  ClusterOptions o = StatsCluster();
  o.slow_query_threshold_us = 1;  // everything is "slow"
  Cluster cluster(o);
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1)").ok());
  // Identical text twice: the second run hits the plan cache (keyed on raw
  // statement text) and the slow log must record that bit.
  ASSERT_TRUE(s->Execute("SELECT c1 FROM t1 WHERE c1 = 1").ok());
  ASSERT_TRUE(s->Execute("SELECT c1 FROM t1 WHERE c1 = 1").ok());

  bool saw_fingerprint = false, saw_cache_hit = false;
  for (const SlowQueryLog::Entry& e : cluster.slow_query_log().Entries()) {
    if (e.fingerprint == "select c1 from t1 where c1 = $1") {
      saw_fingerprint = true;
      saw_cache_hit |= e.plan_cache_hit;
    }
  }
  EXPECT_TRUE(saw_fingerprint) << "slow-log entries must carry the fingerprint";
  EXPECT_TRUE(saw_cache_hit) << "the repeated shape must log a plan-cache hit";
}

// Concurrency hammer (sized for the TSan tier-1 subset): writer sessions run
// TPC-B-style transfers while reader sessions hammer all four stats views and
// the history daemon ticks — no crashes, no errors, and the statements view
// must show the write traffic when the dust settles.
TEST(StatsViewsTest, ConcurrentViewReadsUnderWriteLoad) {
  ClusterOptions o = StatsCluster();
  o.stats_history_period_us = 5'000;
  Cluster cluster(o);
  auto setup = cluster.Connect();
  ASSERT_TRUE(
      setup->Execute("CREATE TABLE accts (aid int, bal int) DISTRIBUTED BY (aid)").ok());
  for (int i = 1; i <= 32; ++i) {
    ASSERT_TRUE(
        setup->Execute("INSERT INTO accts VALUES (" + std::to_string(i) + ", 0)").ok());
  }

  const int64_t end_us = MonotonicMicros() + 1'500'000;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  std::atomic<uint64_t> writes{0}, reads{0}, read_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto s = cluster.Connect();
      int64_t i = 0;
      while (MonotonicMicros() < end_us) {
        int64_t aid = (w * 8 + i++) % 32 + 1;
        if (s->Execute("UPDATE accts SET bal = bal + 1 WHERE aid = " +
                       std::to_string(aid))
                .ok()) {
          writes.fetch_add(1);
        }
      }
    });
  }
  const char* views[] = {"gp_stat_statements", "gp_stat_history",
                         "gp_stat_progress", "gp_metrics"};
  for (int v = 0; v < kReaders; ++v) {
    threads.emplace_back([&, v] {
      auto s = cluster.Connect();
      int64_t i = 0;
      while (MonotonicMicros() < end_us) {
        const char* view = views[(v + i++) % 4];
        auto r = s->Execute(std::string("SELECT count(*) FROM ") + view);
        reads.fetch_add(1);
        if (!r.ok()) read_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(writes.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(read_errors.load(), 0u) << "stats views must answer under load";

  auto r = setup->Execute(
      "SELECT calls FROM gp_stat_statements "
      "WHERE fingerprint = 'update accts set bal = bal + $1 where aid = $2'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  // calls counts failed attempts too, so it can only exceed the OK count.
  EXPECT_GE(static_cast<uint64_t>(r->rows[0][0].int_val()), writes.load());
}

}  // namespace
}  // namespace gphtap
