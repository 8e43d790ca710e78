// Mirror failover: FTS detects a dead primary over the simulated interconnect
// and promotes its mirror; sessions see clean retryable errors during the
// outage and identical data afterwards.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <string>
#include <thread>

#include "api/gphtap.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "workload/driver.h"
#include "workload/tpcb.h"

namespace gphtap {
namespace {

ClusterOptions MirroredOptions() {
  ClusterOptions o;
  o.num_segments = 3;
  o.mirrors_enabled = true;
  o.crash_recovery_enabled = true;
  o.commit_retry_initial_backoff_us = 200;
  o.commit_retry_max_backoff_us = 5'000;
  return o;
}

QueryResult MustExec(Session* s, const std::string& sql) {
  auto r = s->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : QueryResult{};
}

// Polls Health() until `pred` holds or ~`timeout_ms` passes.
template <typename Pred>
bool WaitForHealth(Cluster* cluster, const Pred& pred, int64_t timeout_ms = 5000) {
  for (int64_t waited = 0; waited < timeout_ms * 1000; waited += 1000) {
    if (pred(cluster->Health())) return true;
    PreciseSleepUs(1000);
  }
  return pred(cluster->Health());
}

TEST(FailoverTest, FtsPromotesMirrorUnderTpcb) {
  ClusterOptions o = MirroredOptions();
  o.fts_enabled = true;
  o.fts_period_us = 5'000;
  o.fts_misses_before_failover = 2;
  Cluster cluster(o);
  TpcbConfig tpcb;
  tpcb.accounts_per_branch = 400;
  ASSERT_TRUE(LoadTpcb(&cluster, tpcb).ok());

  DriverOptions d;
  d.num_clients = 4;
  d.duration_ms = 2'500;
  DriverResult result;
  std::thread load([&] {
    result = RunWorkload(&cluster, d,
                         [&tpcb](Session* s, Rng& rng) {
                           return RunTpcbTransaction(s, rng, tpcb);
                         });
  });

  PreciseSleepUs(500'000);  // let the workload get going
  ASSERT_TRUE(cluster.CrashSegment(1).ok());
  // FTS must notice within misses_before_failover probe rounds and promote.
  bool promoted = WaitForHealth(&cluster, [](const ClusterHealth& h) {
    return h.segments[1].up && h.segments[1].mirror_promoted;
  });
  load.join();
  EXPECT_TRUE(promoted);
  ClusterHealth health = cluster.Health();
  EXPECT_GE(health.fts.failovers, 1u);
  EXPECT_GT(health.fts.probes, 0u);

  // The outage surfaced as retryable errors, not as wrong results or hangs.
  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.retryable, 0u);
  Status invariant = CheckTpcbInvariant(&cluster);
  EXPECT_TRUE(invariant.ok()) << invariant.ToString();

  // The promoted cluster keeps serving transactions.
  auto session = cluster.Connect();
  Rng rng(7);
  EXPECT_TRUE(RunTpcbTransaction(session.get(), rng, tpcb).ok());
}

TEST(FailoverTest, PromotedMirrorServesIdenticalData) {
  Cluster cluster(MirroredOptions());
  auto session = cluster.Connect();
  MustExec(session.get(), "CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  MustExec(session.get(), "INSERT INTO t SELECT i, i * 10 FROM generate_series(1, 90) i");
  MustExec(session.get(), "UPDATE t SET v = 0 WHERE k % 7 = 0");
  MustExec(session.get(), "DELETE FROM t WHERE k % 11 = 0");
  const std::string probe = "SELECT k, v FROM t ORDER BY k";
  std::string before = MustExec(session.get(), probe).ToString();

  ASSERT_TRUE(cluster.CatchUpMirrors().ok());
  ASSERT_TRUE(cluster.FailoverToMirror(1).ok());
  EXPECT_TRUE(cluster.segment(1)->up());
  EXPECT_TRUE(cluster.mirror(1)->promoted());

  std::string after = MustExec(session.get(), probe).ToString();
  EXPECT_EQ(before, after);
  // A consumed mirror cannot be promoted twice.
  EXPECT_EQ(cluster.FailoverToMirror(1).code(), StatusCode::kNotSupported);
  // The rebuilt segment accepts new writes.
  MustExec(session.get(), "INSERT INTO t VALUES (1000, 1)");
}

TEST(FailoverTest, MirrorChecksSkipAPromotedMirror) {
  // The promoted mirror's replay stopped at the failover; the primary's
  // Recover consumed its log. The other mirrors still catch up and agree.
  Cluster cluster(MirroredOptions());
  auto session = cluster.Connect();
  MustExec(session.get(), "CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  MustExec(session.get(), "INSERT INTO t SELECT i, i FROM generate_series(1, 30) i");
  ASSERT_TRUE(cluster.FailoverToMirror(1).ok());
  MustExec(session.get(), "INSERT INTO t SELECT i, i FROM generate_series(31, 60) i");
  Status caught_up = cluster.CatchUpMirrors();
  EXPECT_TRUE(caught_up.ok()) << caught_up.ToString();
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

TEST(FailoverTest, FtsDetectsProbeTimeout) {
  ClusterOptions o = MirroredOptions();
  o.fts_enabled = true;
  o.fts_period_us = 3'000;
  o.fts_misses_before_failover = 2;
  Cluster cluster(o);
  auto session = cluster.Connect();
  MustExec(session.get(), "CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  MustExec(session.get(), "INSERT INTO t SELECT i, i FROM generate_series(1, 30) i");
  ASSERT_TRUE(cluster.CatchUpMirrors().ok());

  // The segment process is healthy but its probe responses time out — FTS must
  // treat it as dead and promote the mirror.
  cluster.faults().ArmAlways(fault_points::kFtsProbeTimeout, /*scope=*/2);
  bool promoted = WaitForHealth(&cluster, [](const ClusterHealth& h) {
    return h.segments[2].mirror_promoted && h.segments[2].up;
  });
  cluster.faults().Disarm(fault_points::kFtsProbeTimeout);
  EXPECT_TRUE(promoted);
  EXPECT_GE(cluster.Health().fts.failovers, 1u);
  EXPECT_EQ(MustExec(session.get(), "SELECT count(*) FROM t").rows[0][0].int_val(), 30);
}

TEST(FailoverTest, MirrorStallShowsLagInHealth) {
  Cluster cluster(MirroredOptions());
  auto session = cluster.Connect();
  MustExec(session.get(), "CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  cluster.faults().ArmAlways(fault_points::kMirrorReplayStall, /*scope=*/1);
  MustExec(session.get(), "INSERT INTO t SELECT i, i FROM generate_series(1, 60) i");

  ClusterHealth health = cluster.Health();
  const SegmentHealthInfo& seg1 = health.segments[1];
  EXPECT_TRUE(seg1.has_mirror);
  EXPECT_TRUE(seg1.mirror_health.ok()) << seg1.mirror_health.ToString();
  EXPECT_LT(seg1.mirror_applied, seg1.change_log_size);

  cluster.faults().Disarm(fault_points::kMirrorReplayStall);
  ASSERT_TRUE(cluster.CatchUpMirrors().ok());
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

// A failover stops the mirror's tailer and nothing else: the delta feed stays
// parked on the log, so an idle cluster wakes about as often after the
// failover as before it.
TEST(FailoverTest, DeltaFeedStaysParkedAfterFailover) {
  ClusterOptions o = MirroredOptions();
  o.delta_store_enabled = true;
  Cluster cluster(o);
  auto session = cluster.Connect();
  MustExec(session.get(), "CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  MustExec(session.get(), "INSERT INTO t SELECT i, i FROM generate_series(1, 30) i");
  ASSERT_TRUE(cluster.CatchUpMirrors().ok());
  // Voluntary context switches of the whole process over 200 idle ms.
  auto idle_switches = [] {
    rusage start{};
    getrusage(RUSAGE_SELF, &start);
    PreciseSleepUs(200'000);
    rusage end{};
    getrusage(RUSAGE_SELF, &end);
    return end.ru_nvcsw - start.ru_nvcsw;
  };
  const long before = idle_switches();
  ASSERT_TRUE(cluster.FailoverToMirror(1).ok());
  const long after = idle_switches();
  EXPECT_LE(after, before + 50) << "before failover " << before << ", after " << after;
  EXPECT_EQ(MustExec(session.get(), "SELECT count(*) FROM t").rows[0][0].int_val(), 30);
}

TEST(FailoverTest, FailoverWithoutMirrorIsRejected) {
  ClusterOptions o;
  o.num_segments = 2;
  o.crash_recovery_enabled = true;
  Cluster cluster(o);
  EXPECT_EQ(cluster.FailoverToMirror(0).code(), StatusCode::kNotSupported);
  EXPECT_FALSE(cluster.FailoverToMirror(-1).ok());
  EXPECT_FALSE(cluster.FailoverToMirror(9).ok());
}

}  // namespace
}  // namespace gphtap
