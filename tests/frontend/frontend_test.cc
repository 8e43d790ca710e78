// Front-door tests: thread-decoupled logical sessions over a bounded worker
// pool. Covers the accept/dispatch bounds (global + per resource group), the
// shed contract (retryable kUnavailable with a retry-after hint, never a
// block), transaction continuations being exempt from shedding, idle/login
// sweeps, queued-state observability in gp_stat_activity / gp_metrics, the
// no-pipelining rule, and a connection storm riding the chaos fault schedule
// (seeds 42 / 1337 / 7).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/gphtap.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "workload/chaos.h"
#include "workload/driver.h"
#include "workload/tpcb.h"

namespace gphtap {
namespace {

ClusterOptions FrontDoorCluster(int workers = 4) {
  ClusterOptions o;
  o.num_segments = 2;
  o.frontend.enabled = true;
  o.frontend.workers = workers;
  return o;
}

// Polls until `pred` holds or ~2s pass; front-door state transitions are
// worker-driven, so tests wait for them instead of assuming scheduling.
template <typename Pred>
bool WaitFor(Pred pred, int64_t budget_us = 2'000'000) {
  int64_t deadline = MonotonicMicros() + budget_us;
  while (MonotonicMicros() < deadline) {
    if (pred()) return true;
    PreciseSleepUs(1000);
  }
  return pred();
}

TEST(FrontendTest, ExecutesStatementsThroughThePool) {
  Cluster cluster(FrontDoorCluster());
  auto fs = cluster.ConnectLogical();
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();

  ASSERT_TRUE((*fs)->Execute("CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE((*fs)->Execute("INSERT INTO t VALUES (1, 10), (2, 20)").ok());
  auto r = (*fs)->Execute("SELECT sum(b) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 30);

  FrontDoor::Stats s = cluster.frontend()->stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_GE(s.executed, 3u);
  EXPECT_EQ(s.live_sessions, 1);
  EXPECT_GT(s.busy_us, 0);
}

TEST(FrontendTest, TransactionsSpanStatementsAcrossWorkers) {
  // With multiple workers, consecutive statements of one transaction land on
  // whatever worker is free — the attach/detach handoff must preserve the
  // transaction (and the mutex handoff must make it race-free; the TSan run
  // of this test is the real assertion).
  Cluster cluster(FrontDoorCluster(/*workers=*/4));
  auto fs = cluster.ConnectLogical();
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->Execute("CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)").ok());

  ASSERT_TRUE((*fs)->Execute("BEGIN").ok());
  ASSERT_TRUE((*fs)->Execute("INSERT INTO t VALUES (1, 100)").ok());
  ASSERT_TRUE((*fs)->Execute("INSERT INTO t VALUES (2, 200)").ok());
  ASSERT_TRUE((*fs)->Execute("ROLLBACK").ok());
  auto gone = (*fs)->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->rows[0][0].int_val(), 0);

  ASSERT_TRUE((*fs)->Execute("BEGIN").ok());
  ASSERT_TRUE((*fs)->Execute("INSERT INTO t VALUES (3, 300)").ok());
  ASSERT_TRUE((*fs)->Execute("COMMIT").ok());
  auto kept = (*fs)->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->rows[0][0].int_val(), 1);
}

TEST(FrontendTest, NoPipeliningOneStatementInFlight) {
  Cluster cluster(FrontDoorCluster(/*workers=*/1));
  auto fs = cluster.ConnectLogical();
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->Execute("CREATE TABLE t (a int) DISTRIBUTED BY (a)").ok());

  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 100'000);
  std::atomic<bool> first_done{false};
  ASSERT_TRUE((*fs)
                  ->Submit("INSERT INTO t VALUES (1)",
                           [&](StatusOr<QueryResult> r) {
                             EXPECT_TRUE(r.ok()) << r.status().ToString();
                             first_done.store(true);
                           })
                  .ok());
  Status second = (*fs)->Submit("INSERT INTO t VALUES (2)", [](StatusOr<QueryResult>) {});
  EXPECT_EQ(second.code(), StatusCode::kInvalidArgument);
  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return first_done.load(); }));
}

TEST(FrontendTest, ConnectShedsOverMaxSessionsWithRetryAfter) {
  ClusterOptions o = FrontDoorCluster();
  o.frontend.max_sessions = 2;
  Cluster cluster(o);

  auto a = cluster.ConnectLogical();
  auto b = cluster.ConnectLogical();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto c = cluster.ConnectLogical();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(c.status().retry_after_us(), 0);
  EXPECT_TRUE(IsShedFailure(c.status()));
  EXPECT_EQ(cluster.frontend()->stats().shed_connects, 1u);

  // Shed is a capacity signal, not a ban: capacity freed -> connect admitted.
  (*a)->Close();
  EXPECT_TRUE(WaitFor([&] { return cluster.frontend()->stats().live_sessions == 1; }));
  auto d = cluster.ConnectLogical();
  EXPECT_TRUE(d.ok()) << d.status().ToString();
}

TEST(FrontendTest, AcceptDropFaultPointShedsConnects) {
  Cluster cluster(FrontDoorCluster());
  cluster.faults().ArmOneShot(fault_points::kFrontendAcceptDrop);
  auto dropped = cluster.ConnectLogical();
  ASSERT_FALSE(dropped.ok());
  EXPECT_TRUE(IsShedFailure(dropped.status())) << dropped.status().ToString();
  auto ok = cluster.ConnectLogical();
  EXPECT_TRUE(ok.ok());
}

TEST(FrontendTest, DispatchQueueBoundShedsOpeners) {
  ClusterOptions o = FrontDoorCluster(/*workers=*/1);
  o.frontend.max_dispatch_queue = 1;
  Cluster cluster(o);

  auto a = cluster.ConnectLogical();
  auto b = cluster.ConnectLogical();
  auto c = cluster.ConnectLogical();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE((*a)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());

  // Occupy the only worker (stalled), then fill the one-slot open queue.
  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 200'000);
  std::atomic<int> done{0};
  auto count_done = [&](StatusOr<QueryResult>) { done.fetch_add(1); };
  ASSERT_TRUE((*a)->Submit("INSERT INTO t VALUES (1)", count_done).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster.frontend()->stats().busy_workers == 1; }));
  ASSERT_TRUE((*b)->Submit("INSERT INTO t VALUES (2)", count_done).ok());

  Status shed = (*c)->Submit("INSERT INTO t VALUES (3)", count_done);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsShedFailure(shed)) << shed.ToString();
  EXPECT_GE(shed.retry_after_us(), cluster.frontend()->options().retry_after_us);
  EXPECT_EQ(cluster.frontend()->stats().shed_statements, 1u);

  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return done.load() == 2; }));

  // Pressure gone: the shed statement's retry is admitted.
  EXPECT_TRUE((*c)->Execute("INSERT INTO t VALUES (3)").ok());
}

TEST(FrontendTest, TransactionContinuationsAreNeverShed) {
  ClusterOptions o = FrontDoorCluster(/*workers=*/1);
  o.frontend.max_dispatch_queue = 1;
  Cluster cluster(o);

  auto txn = cluster.ConnectLogical();
  auto filler = cluster.ConnectLogical();
  auto queued = cluster.ConnectLogical();
  ASSERT_TRUE(txn.ok() && filler.ok() && queued.ok());
  ASSERT_TRUE((*txn)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());
  ASSERT_TRUE((*txn)->Execute("BEGIN").ok());
  ASSERT_TRUE((*txn)->Execute("INSERT INTO t VALUES (1)").ok());

  // Saturate: worker stalled on filler's statement, open queue full.
  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 200'000);
  std::atomic<int> done{0};
  auto count_done = [&](StatusOr<QueryResult>) { done.fetch_add(1); };
  ASSERT_TRUE((*filler)->Submit("INSERT INTO t VALUES (2)", count_done).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster.frontend()->stats().busy_workers == 1; }));
  ASSERT_TRUE((*queued)->Submit("INSERT INTO t VALUES (3)", count_done).ok());
  ASSERT_FALSE((*queued)->Submit("INSERT INTO t VALUES (9)", count_done).ok());

  // The open transaction's COMMIT must be admitted anyway — shedding it would
  // strand its locks behind a saturated queue forever.
  std::atomic<bool> committed{false};
  Status commit = (*txn)->Submit("COMMIT", [&](StatusOr<QueryResult> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    committed.store(true);
  });
  EXPECT_TRUE(commit.ok()) << commit.ToString();

  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return committed.load() && done.load() == 2; }));
}

TEST(FrontendTest, GroupBackpressureShedsPerResourceGroup) {
  ClusterOptions o = FrontDoorCluster(/*workers=*/4);
  o.resource_groups_enabled = true;
  o.frontend.group_queue_overflow = 1;
  Cluster cluster(o);
  ResourceGroupConfig tight;
  tight.name = "tight";
  tight.concurrency = 1;  // DispatchBound = 1 + 1*1 = 2 queued-or-running
  ASSERT_TRUE(cluster.resgroups().CreateGroup(tight).ok());
  ASSERT_TRUE(cluster.resgroups().AssignRole("stormy", "tight").ok());

  auto s1 = cluster.ConnectLogical("stormy");
  auto s2 = cluster.ConnectLogical("stormy");
  auto s3 = cluster.ConnectLogical("stormy");
  auto other = cluster.ConnectLogical();
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok() && other.ok());
  ASSERT_TRUE((*other)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());

  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 200'000);
  std::atomic<int> done{0};
  auto count_done = [&](StatusOr<QueryResult>) { done.fetch_add(1); };
  ASSERT_TRUE((*s1)->Submit("INSERT INTO t VALUES (1)", count_done).ok());
  ASSERT_TRUE((*s2)->Submit("INSERT INTO t VALUES (2)", count_done).ok());

  Status shed = (*s3)->Submit("INSERT INTO t VALUES (3)", count_done);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(IsShedFailure(shed)) << shed.ToString();

  // A session of a different group is not caught in tight's backpressure.
  std::atomic<bool> other_done{false};
  EXPECT_TRUE((*other)
                  ->Submit("INSERT INTO t VALUES (4)",
                           [&](StatusOr<QueryResult>) { other_done.store(true); })
                  .ok());

  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return done.load() == 2 && other_done.load(); }));
}

TEST(FrontendTest, IdleAndLoginTimeoutsReapSessions) {
  ClusterOptions o = FrontDoorCluster();
  o.frontend.idle_timeout_us = 30'000;
  o.frontend.login_timeout_us = 30'000;
  Cluster cluster(o);

  auto idle = cluster.ConnectLogical();
  auto fresh = cluster.ConnectLogical();
  ASSERT_TRUE(idle.ok() && fresh.ok());
  // `idle` runs one statement, then goes quiet; `fresh` never runs anything.
  ASSERT_TRUE((*idle)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());

  // `idle` exceeds idle_timeout, `fresh` never runs and exceeds login_timeout.
  EXPECT_TRUE(WaitFor([&] { return (*idle)->closed() && (*fresh)->closed(); }));
  EXPECT_GE(cluster.frontend()->stats().idle_closed, 2u);
  EXPECT_EQ(cluster.frontend()->stats().live_sessions, 0);
  EXPECT_EQ(cluster.sessions().Snapshot().size(), 0u);  // unregistered too

  // A closed handle sheds with a hint: the client's cue to reconnect.
  Status late = (*idle)->Submit("SELECT count(*) FROM t", [](StatusOr<QueryResult>) {});
  EXPECT_TRUE(IsShedFailure(late)) << late.ToString();
}

TEST(FrontendTest, QueuedSessionsVisibleInStatActivityAndMetrics) {
  Cluster cluster(FrontDoorCluster(/*workers=*/1));
  auto a = cluster.ConnectLogical();
  auto b = cluster.ConnectLogical();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());

  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 200'000);
  std::atomic<int> done{0};
  auto count_done = [&](StatusOr<QueryResult>) { done.fetch_add(1); };
  ASSERT_TRUE((*a)->Submit("INSERT INTO t VALUES (1)", count_done).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster.frontend()->stats().busy_workers == 1; }));
  ASSERT_TRUE((*b)->Submit("INSERT INTO t VALUES (2)", count_done).ok());

  // While b waits for dispatch, a direct session sees it as queued.
  auto direct = cluster.Connect();
  auto rows = direct->Execute(
      "SELECT sess_id, wait_event_class, wait_event, queue_depth "
      "FROM gp_stat_activity WHERE state = 'queued'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].int_val(), (*b)->id());
  EXPECT_EQ(rows->rows[0][1].string_val(), "frontend");
  EXPECT_EQ(rows->rows[0][2].string_val(), "dispatch");
  EXPECT_GE(rows->rows[0][3].int_val(), 1);

  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return done.load() == 2; }));

  // The dispatch wait is accumulated per event class, and the frontend.*
  // counters surface through gp_metrics.
  auto waits = direct->Execute(
      "SELECT count(*) FROM gp_wait_events WHERE wait_event = 'dispatch'");
  ASSERT_TRUE(waits.ok());
  EXPECT_GE(waits->rows[0][0].int_val(), 1);
  auto metrics = direct->Execute(
      "SELECT name, value FROM gp_metrics WHERE name = 'frontend.queued'");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->rows.size(), 1u);
  EXPECT_GE(metrics->rows[0][1].int_val(), 2);
}

TEST(FrontendTest, RetryAfterHintScalesWithQueuePressure) {
  ClusterOptions o = FrontDoorCluster(/*workers=*/1);
  o.frontend.max_dispatch_queue = 4;
  Cluster cluster(o);
  FrontDoor* door = cluster.frontend();
  int64_t relaxed = door->RetryAfterHintUs();
  EXPECT_EQ(relaxed, o.frontend.retry_after_us);

  auto a = cluster.ConnectLogical();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());
  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 150'000);
  std::atomic<int> done{0};
  auto count_done = [&](StatusOr<QueryResult>) { done.fetch_add(1); };
  std::vector<std::shared_ptr<FrontendSession>> fillers;
  ASSERT_TRUE((*a)->Submit("INSERT INTO t VALUES (0)", count_done).ok());
  ASSERT_TRUE(WaitFor([&] { return door->stats().busy_workers == 1; }));
  for (int i = 0; i < 4; ++i) {
    auto fs = cluster.ConnectLogical();
    ASSERT_TRUE(fs.ok());
    fillers.push_back(*fs);
    ASSERT_TRUE(
        fillers.back()
            ->Submit("INSERT INTO t VALUES (" + std::to_string(i + 1) + ")", count_done)
            .ok());
  }
  EXPECT_GT(door->RetryAfterHintUs(), relaxed);  // pressure stretches the hint
  cluster.faults().Disarm(fault_points::kFrontendWorkerStall);
  EXPECT_TRUE(WaitFor([&] { return done.load() == 5; }));
}

TEST(FrontendTest, ManyLogicalSessionsOverAFixedPool) {
  // 300 logical sessions over 4 workers: no per-session OS thread exists by
  // construction (the driver's clients are callback chains). The run must
  // make progress and keep the TPC-B invariant.
  ClusterOptions o = FrontDoorCluster(/*workers=*/4);
  Cluster cluster(o);
  TpcbConfig tpcb;
  tpcb.scale = 4;
  tpcb.accounts_per_branch = 50;
  ASSERT_TRUE(LoadTpcb(&cluster, tpcb).ok());

  // The run stops on work done, not after a fixed window that must also cover
  // the ramp and 300 PREPARE scripts: once every session is in and 50 TPC-B
  // transactions have committed. The duration only caps a stuck run.
  FrontendWorkloadOptions w;
  w.logical_sessions = 300;
  w.duration_ms = 60'000;
  w.seed = 7;
  w.session_init = TpcbPrepareScript();
  std::atomic<bool> stop{false};
  w.stop = &stop;
  Counter* commits = cluster.metrics().counter("txn.committed");
  const uint64_t loaded = commits->value();
  std::atomic<bool> finished{false};
  std::thread watcher([&] {
    while (!finished.load() && !stop.load()) {
      if (cluster.frontend()->stats().accepted >= 300 && commits->value() >= loaded + 50) {
        stop.store(true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  FrontendWorkloadResult r = RunFrontendWorkload(
      &cluster, w, [&tpcb](Rng& rng) { return TpcbTransactionScript(rng, tpcb); });
  finished.store(true);
  watcher.join();

  EXPECT_TRUE(r.fatal.ok()) << r.fatal.ToString();
  EXPECT_EQ(r.connect_ok, 300u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_TRUE(CheckTpcbInvariant(&cluster).ok());

  FrontDoor::Stats s = cluster.frontend()->stats();
  EXPECT_EQ(s.accepted, 300u);
  EXPECT_GE(s.executed, r.committed);
}

TEST(FrontendTest, StopFailsQueuedWorkCleanly) {
  Cluster cluster(FrontDoorCluster(/*workers=*/1));
  auto a = cluster.ConnectLogical();
  auto b = cluster.ConnectLogical();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Execute("CREATE TABLE t (x int) DISTRIBUTED BY (x)").ok());

  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 100'000);
  std::atomic<int> callbacks{0};
  auto count = [&](StatusOr<QueryResult>) { callbacks.fetch_add(1); };
  ASSERT_TRUE((*a)->Submit("INSERT INTO t VALUES (1)", count).ok());
  ASSERT_TRUE((*b)->Submit("INSERT INTO t VALUES (2)", count).ok());

  cluster.frontend()->Stop();  // idempotent; ~Cluster calls it again
  EXPECT_EQ(callbacks.load(), 2);  // every accepted Submit got its callback
  EXPECT_TRUE((*a)->closed());
  EXPECT_TRUE((*b)->closed());
  Status late = (*a)->Submit("SELECT count(*) FROM t", [](StatusOr<QueryResult>) {});
  EXPECT_FALSE(late.ok());
}

// --- Connection storm under the chaos fault schedule (satellite 3) ---------
// A moderate storm rides the full crash/failover schedule; run_tier1's bench
// covers the 50k-session scale. Invariants: balance conservation, no lost or
// ghost writes from the direct transfer sessions, every shed connect
// classified as a retryable kUnavailable-with-hint (anything else lands in
// report.violations via the engine's `fatal`).
void RunStormSeed(uint64_t seed) {
  ClusterOptions o;
  o.num_segments = 3;
  o.gdd_enabled = true;
  o.mirrors_enabled = true;
  o.crash_recovery_enabled = true;
  o.fts_enabled = true;
  o.breaker_enabled = true;
  o.commit_retry_deadline_us = 2'000'000;
  o.frontend.enabled = true;
  o.frontend.workers = 6;
  o.frontend.max_sessions = 600;  // the ramp overshoots this: connects shed
  Cluster cluster(o);

  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.duration_ms = 2000;
  cfg.transfer_sessions = 4;
  cfg.scan_sessions = 2;
  cfg.statement_timeout_ms = 1500;
  cfg.storm_sessions = 800;
  cfg.storm_ramp_threads = 4;
  // Keep the accept path itself under fire while the storm ramps.
  cluster.faults().ArmProbability(fault_points::kFrontendAcceptDrop, 0.05, seed);
  cluster.faults().ArmDelay(fault_points::kFrontendWorkerStall, 200);

  ASSERT_TRUE(SetupChaosTables(&cluster, cfg).ok());
  ChaosReport report = RunChaosWorkload(&cluster, cfg);
  SCOPED_TRACE(report.ToString());

  EXPECT_TRUE(report.invariants_ok()) << report.ToString();
  EXPECT_GT(report.storm_connect_ok, 0u);
  EXPECT_GT(report.storm_connect_shed, 0u);  // max_sessions < ramp: sheds happen
  EXPECT_GT(report.storm_committed, 0u);
  EXPECT_GT(report.faults_injected, 0u);
}

TEST(FrontendStormTest, InvariantsHoldSeed42) { RunStormSeed(42); }

TEST(FrontendStormTest, InvariantsHoldSeed1337) { RunStormSeed(1337); }

TEST(FrontendStormTest, InvariantsHoldSeed7) { RunStormSeed(7); }

}  // namespace
}  // namespace gphtap
