// System views over live cluster state, queried through the normal SQL path:
// gp_stat_activity shows a blocked session's wait event while it is blocked,
// gp_locks exposes the lock tables, gp_dist_deadlocks replays the GDD's
// merged wait-for graph, gp_background_tasks lists every periodic daemon,
// and Cluster::DumpChromeTrace exports retained query traces as Chrome
// trace_event JSON.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "catalog/datum.h"
#include "integration/actor.h"

namespace gphtap {
namespace {

class SystemViewsTest : public ::testing::Test {
 protected:
  void StartCluster(ClusterOptions options) {
    cluster_ = std::make_unique<Cluster>(options);
  }

  void StartCluster() {
    ClusterOptions options;
    options.num_segments = 3;
    options.gdd_period_us = 10'000;
    StartCluster(options);
  }

  /// Smallest positive int whose hash routes to `segment` and is not in `used`.
  int64_t KeyOnSegment(int segment, std::vector<int64_t>* used) {
    for (int64_t v = 1;; ++v) {
      if (std::find(used->begin(), used->end(), v) != used->end()) continue;
      if (cluster_->SegmentForHash(Datum(v).Hash()) == segment) {
        used->push_back(v);
        return v;
      }
    }
  }

  std::unique_ptr<Cluster> cluster_;
};

// The acceptance scenario: while session B is queued behind session A's
// relation lock, `SELECT ... FROM gp_stat_activity` from a THIRD session (the
// normal SQL path, no locks taken) returns B with wait_event_class='Lock'.
TEST_F(SystemViewsTest, StatActivityShowsBlockedSessionWaitingOnLock) {
  StartCluster();
  Actor a(cluster_.get()), b(cluster_.get());
  ASSERT_TRUE(a.RunSync("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(a.RunSync("LOCK t1 IN ACCESS EXCLUSIVE MODE").ok());

  auto b_blocked = b.Run("LOCK t1 IN ACCESS EXCLUSIVE MODE");
  ASSERT_TRUE(StillBlocked(b_blocked)) << "B should queue behind A's lock";

  auto observer = cluster_->Connect();
  auto r = observer->Execute(
      "SELECT sess_id, state, wait_event_class, wait_event, wait_us "
      "FROM gp_stat_activity WHERE wait_event_class = 'Lock'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u) << "exactly one session is lock-blocked";
  EXPECT_EQ(r->rows[0][1].string_val(), "active");
  EXPECT_EQ(r->rows[0][2].string_val(), "Lock");
  EXPECT_EQ(r->rows[0][3].string_val(), "relation");
  EXPECT_GE(r->rows[0][4].int_val(), 0);

  // The observer itself appears as active, running this very statement.
  r = observer->Execute(
      "SELECT query FROM gp_stat_activity WHERE state = 'active' "
      "AND wait_event_class = ''");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_NE(r->rows[0][0].string_val().find("gp_stat_activity"), std::string::npos);

  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  EXPECT_TRUE(b_blocked.get().ok());
}

TEST_F(SystemViewsTest, GpLocksShowsGrantedAndWaitingEntries) {
  StartCluster();
  Actor a(cluster_.get()), b(cluster_.get());
  ASSERT_TRUE(a.RunSync("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(a.RunSync("LOCK t1 IN ACCESS EXCLUSIVE MODE").ok());
  auto b_blocked = b.Run("LOCK t1 IN ACCESS EXCLUSIVE MODE");
  ASSERT_TRUE(StillBlocked(b_blocked));

  auto observer = cluster_->Connect();
  // A holds the relation everywhere: coordinator (node -1) + every segment.
  auto held = observer->Execute(
      "SELECT node, locktype, mode FROM gp_locks WHERE granted = 1");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_GE(held->rows.size(), 4u);
  // B waits on the coordinator lock (parse-analyze ordering).
  auto waiting = observer->Execute("SELECT node, locktype FROM gp_locks WHERE granted = 0");
  ASSERT_TRUE(waiting.ok()) << waiting.status().ToString();
  ASSERT_GE(waiting->rows.size(), 1u);
  EXPECT_EQ(waiting->rows[0][1].string_val(), "relation");

  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  EXPECT_TRUE(b_blocked.get().ok());
}

TEST_F(SystemViewsTest, AggregatesAndFiltersOverSystemViews) {
  StartCluster();
  auto s = cluster_->Connect();
  // Single-phase aggregate over a coordinator-only virtual scan.
  auto r = s->Execute("SELECT count(*) FROM gp_segment_status");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 3);

  r = s->Execute("SELECT count(*) FROM gp_segment_status WHERE up = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int_val(), 3);

  r = s->Execute("SELECT name, concurrency FROM gp_resgroup_status");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->rows.size(), 1u);
  bool default_group = false;
  for (const Row& row : r->rows) {
    if (row[0].string_val() == "default_group") default_group = true;
  }
  EXPECT_TRUE(default_group);
}

TEST_F(SystemViewsTest, JoiningSystemViewsWithTablesIsRejected) {
  StartCluster();
  auto s = cluster_->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int) DISTRIBUTED BY (c1)").ok());
  auto r = s->Execute("SELECT * FROM gp_locks, t1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(SystemViewsTest, WaitEventsViewAccumulatesLockWaits) {
  StartCluster();
  Actor a(cluster_.get()), b(cluster_.get());
  ASSERT_TRUE(a.RunSync("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(a.RunSync("LOCK t1 IN ACCESS EXCLUSIVE MODE").ok());
  auto b_blocked = b.Run("LOCK t1 IN ACCESS EXCLUSIVE MODE");
  ASSERT_TRUE(StillBlocked(b_blocked));
  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  ASSERT_TRUE(b_blocked.get().ok());
  ASSERT_TRUE(b.RunSync("COMMIT").ok());

  auto observer = cluster_->Connect();
  auto r = observer->Execute(
      "SELECT wait_event_class, wait_event, count, total_us, p95_us "
      "FROM gp_wait_events WHERE wait_event = 'relation'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].string_val(), "Lock");
  EXPECT_GE(r->rows[0][2].int_val(), 1);
  EXPECT_GT(r->rows[0][3].int_val(), 0);
}

// Every enabled daemon runs on one PeriodicTask and reports its runs, the age
// of its last pass and its duration in gp_background_tasks.
TEST_F(SystemViewsTest, BackgroundTasksViewListsEveryRunningTask) {
  constexpr int64_t kPeriodUs = 100'000;
  ClusterOptions options;
  options.num_segments = 2;
  options.gdd_period_us = kPeriodUs;
  options.mirrors_enabled = true;
  options.fts_enabled = true;
  options.fts_period_us = kPeriodUs;
  options.maintenance_period_us = kPeriodUs;
  options.delta_store_enabled = true;
  options.delta_seal_period_us = kPeriodUs;
  options.stats_history_period_us = kPeriodUs;
  options.frontend.enabled = true;
  options.frontend.idle_timeout_us = 200'000;  // sweeps at a quarter of it
  StartCluster(options);
  auto s = cluster_->Connect();
  const std::string q =
      "SELECT name, period_us, runs, last_run_age_us, last_run_us, p95_run_us "
      "FROM gp_background_tasks";
  const std::map<std::string, int64_t> periods = {
      {"gdd", kPeriodUs},           {"fts", kPeriodUs},
      {"dtx_recovery", DtxRecoveryDaemon::kPeriodUs},
      {"maintenance", kPeriodUs},   {"delta_seal", kPeriodUs},
      {"stats_history", kPeriodUs}, {"frontend_sweeper", 50'000}};
  std::map<std::string, Row> rows;
  const int64_t deadline = MonotonicMicros() + 5'000'000;
  for (;;) {
    auto r = s->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rows.clear();
    for (const Row& row : r->rows) rows[row[0].string_val()] = row;
    bool all_ran = rows.size() == periods.size();
    for (const auto& [name, row] : rows) all_ran = all_ran && row[2].int_val() >= 1;
    if (all_ran || MonotonicMicros() > deadline) break;
    PreciseSleepUs(2'000);
  }
  ASSERT_EQ(rows.size(), periods.size());
  for (const auto& [name, period] : periods) {
    ASSERT_EQ(rows.count(name), 1u) << name;
    const Row& row = rows[name];
    EXPECT_EQ(row[1].int_val(), period) << name;
    EXPECT_GE(row[2].int_val(), 1) << name;
    EXPECT_GE(row[3].int_val(), 0) << name;
    EXPECT_GE(row[4].int_val(), 0) << name;
    EXPECT_GE(row[5].int_val(), 0) << name;
    if (name == "dtx_recovery") {
      // Nothing pending: it parks after its first pass instead of polling.
      EXPECT_EQ(row[2].int_val(), 1);
    } else {
      EXPECT_LT(row[3].int_val(), 2 * period) << name;
    }
  }
}

// Figure 6 deadlock, then introspection: the killed transaction, the merged
// wait-for graph edges, and the Graphviz dump must all be inspectable.
TEST_F(SystemViewsTest, DistDeadlocksViewRecordsVictimAndGraph) {
  ClusterOptions options;
  options.num_segments = 3;
  options.gdd_enabled = true;
  options.gdd_period_us = 10'000;
  options.locks.local_deadlock_timeout_us = 200'000;
  StartCluster(options);
  std::vector<int64_t> used;
  int64_t k0 = KeyOnSegment(0, &used);
  int64_t k1 = KeyOnSegment(1, &used);

  Actor a(cluster_.get()), b(cluster_.get());
  ASSERT_TRUE(a.RunSync("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  for (int64_t k : {k0, k1}) {
    ASSERT_TRUE(a.RunSync("INSERT INTO t1 VALUES (" + std::to_string(k) + ", " +
                          std::to_string(k) + ")")
                    .ok());
  }
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(b.RunSync("BEGIN").ok());
  uint64_t b_gxid = b.session()->current_gxid();
  ASSERT_TRUE(a.RunSync("UPDATE t1 SET c2 = 10 WHERE c1 = " + std::to_string(k0)).ok());
  ASSERT_TRUE(b.RunSync("UPDATE t1 SET c2 = 20 WHERE c1 = " + std::to_string(k1)).ok());
  auto b_blocked = b.Run("UPDATE t1 SET c2 = 30 WHERE c1 = " + std::to_string(k0));
  ASSERT_TRUE(StillBlocked(b_blocked));
  auto a_blocked = a.Run("UPDATE t1 SET c2 = 40 WHERE c1 = " + std::to_string(k1));

  EXPECT_EQ(b_blocked.get().code(), StatusCode::kDeadlockDetected);
  EXPECT_TRUE(a_blocked.get().ok());
  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  ASSERT_TRUE(b.RunSync("ROLLBACK").ok());

  // The ring buffer: one record, one row per merged-graph edge.
  auto observer = cluster_->Connect();
  auto r = observer->Execute(
      "SELECT seq, victim, waiter, holder, edge, on_cycle, iterations, reason "
      "FROM gp_dist_deadlocks");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->rows.size(), 2u) << "a 2-cycle has at least two edges";
  bool victim_on_cycle = false;
  for (const Row& row : r->rows) {
    EXPECT_GE(row[0].int_val(), 1);  // seq
    EXPECT_EQ(static_cast<uint64_t>(row[1].int_val()), b_gxid) << "youngest dies";
    EXPECT_TRUE(row[4].string_val() == "solid" || row[4].string_val() == "dotted");
    EXPECT_GE(row[6].int_val(), 1);  // reduction iterations
    EXPECT_FALSE(row[7].string_val().empty());
    if (static_cast<uint64_t>(row[2].int_val()) == b_gxid && row[5].int_val() == 1) {
      victim_on_cycle = true;
    }
  }
  EXPECT_TRUE(victim_on_cycle) << "the victim must appear as a waiter on the cycle";

  // Filtering by victim works through the normal planner.
  r = observer->Execute("SELECT count(*) FROM gp_dist_deadlocks WHERE on_cycle = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->rows[0][0].int_val(), 2);

  // Graphviz export of the same graph.
  std::string dot = cluster_->gdd()->DumpDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find(std::to_string(b_gxid)), std::string::npos);
}

TEST_F(SystemViewsTest, ChromeTraceExportIsWellFormedAndMarksAborts) {
  ClusterOptions options;
  options.num_segments = 3;
  options.trace_queries = true;
  StartCluster(options);
  auto s = cluster_->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (1, 1), (2, 2), (3, 3)").ok());
  ASSERT_TRUE(s->Execute("SELECT count(*) FROM t1").ok());
  // A runtime error mid-execution: its spans must be closed and flagged, not
  // leaked open.
  ASSERT_FALSE(s->Execute("SELECT c1 / (c1 - c1) FROM t1").ok());

  ASSERT_GE(cluster_->RetainedTraces().size(), 2u);
  bool saw_aborted = false;
  for (const auto& trace : cluster_->RetainedTraces()) {
    for (const TraceSpan& span : trace->Spans()) {
      EXPECT_NE(span.end_us, 0) << "span '" << span.name << "' leaked open";
      saw_aborted |= span.aborted;
    }
  }
  EXPECT_TRUE(saw_aborted) << "the failed query's spans must be flagged";

  std::string path = ::testing::TempDir() + "/gphtap_trace.json";
  ASSERT_TRUE(cluster_->DumpChromeTrace(path).ok());
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream buf;
  buf << f.rdbuf();
  std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"aborted\":true"), std::string::npos);
}

TEST_F(SystemViewsTest, SlowQueryLogReportsTopWaitEvents) {
  ClusterOptions options;
  options.num_segments = 3;
  options.slow_query_threshold_us = 20'000;
  StartCluster(options);
  Actor a(cluster_.get()), b(cluster_.get());
  ASSERT_TRUE(a.RunSync("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  ASSERT_TRUE(a.RunSync("BEGIN").ok());
  ASSERT_TRUE(a.RunSync("LOCK t1 IN ACCESS EXCLUSIVE MODE").ok());
  auto b_blocked = b.Run("LOCK t1 IN ACCESS EXCLUSIVE MODE");
  ASSERT_TRUE(StillBlocked(b_blocked));  // > threshold by construction
  ASSERT_TRUE(a.RunSync("COMMIT").ok());
  ASSERT_TRUE(b_blocked.get().ok());
  ASSERT_TRUE(b.RunSync("COMMIT").ok());

  bool found = false;
  for (const SlowQueryLog::Entry& e : cluster_->slow_query_log().Entries()) {
    for (const SlowQueryLog::WaitItem& w : e.top_waits) {
      if (w.event == "Lock:relation") {
        found = true;
        EXPECT_GE(w.count, 1u);
        EXPECT_GT(w.total_us, 0);
      }
    }
  }
  EXPECT_TRUE(found) << "the blocked LOCK statement must log its lock wait";
}

TEST_F(SystemViewsTest, ExplainAnalyzeReportsMotionWaitsSeparately) {
  StartCluster();
  auto s = cluster_->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(s->Execute("INSERT INTO t1 VALUES (" + std::to_string(i) + ", 1)").ok());
  }
  auto r = s->Execute("EXPLAIN ANALYZE SELECT c1, c2 FROM t1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool motion_wait = false;
  for (const Row& row : r->rows) {
    if (row[0].string_val().find("motion wait: send=") != std::string::npos) {
      motion_wait = true;
    }
  }
  EXPECT_TRUE(motion_wait) << "gather motion must report send/recv waits";
}

}  // namespace
}  // namespace gphtap
