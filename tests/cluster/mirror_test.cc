// Mirror replication (Section 3.1): mirrors replay the primaries' change
// streams on the fly and must converge to identical visible contents.
#include <gtest/gtest.h>

#include <memory>

#include "api/gphtap.h"
#include "common/clock.h"
#include "workload/driver.h"
#include "workload/tpcb.h"

namespace gphtap {
namespace {

ClusterOptions MirroredCluster() {
  ClusterOptions o;
  o.num_segments = 3;
  o.mirrors_enabled = true;
  return o;
}

TEST(MirrorTest, InsertsReplicate) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 200) i").ok());
  ASSERT_TRUE(cluster.CatchUpMirrors().ok());
  TableDef def = *cluster.LookupTable("t");
  for (int i = 0; i < cluster.num_segments(); ++i) {
    EXPECT_EQ(cluster.mirror(i)->GetTable(def.id)->StoredVersionCount(),
              cluster.segment(i)->GetTable(def.id)->StoredVersionCount());
  }
  EXPECT_TRUE(cluster.VerifyMirrorsConsistent().ok());
}

TEST(MirrorTest, UpdatesAndDeletesReplicate) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t SELECT i, 0 FROM generate_series(1, 100) i").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = v + 7 WHERE k <= 50").ok());
  ASSERT_TRUE(s->Execute("DELETE FROM t WHERE k > 90").ok());
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

TEST(MirrorTest, AbortedTransactionsReplicateAsAborted) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(s->Execute("BEGIN").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (2, 2)").ok());
  ASSERT_TRUE(s->Execute("ROLLBACK").ok());
  // The aborted insert reached the mirror but must be invisible there too.
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

TEST(MirrorTest, VacuumReplicates) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t SELECT i, 0 FROM generate_series(1, 50) i").ok());
  ASSERT_TRUE(s->Execute("UPDATE t SET v = 1").ok());
  ASSERT_TRUE(s->Execute("VACUUM t").ok());
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

TEST(MirrorTest, AoTablesReplicate) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE ao (k int, v int) "
                         "WITH (appendonly=true, orientation=column)")
                  .ok());
  ASSERT_TRUE(
      s->Execute("INSERT INTO ao SELECT i, i FROM generate_series(1, 500) i").ok());
  // Visibility-map deletes and updates replicate too.
  ASSERT_TRUE(s->Execute("DELETE FROM ao WHERE k <= 100").ok());
  ASSERT_TRUE(s->Execute("UPDATE ao SET v = 0 WHERE k > 450").ok());
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

// The paper's mirrors replay continuously under live load: hammer the cluster
// with concurrent TPC-B transactions (including aborts and tuple-lock dances),
// then verify byte-for-byte convergence.
TEST(MirrorTest, ConvergesUnderConcurrentLoad) {
  ClusterOptions o = MirroredCluster();
  o.gdd_period_us = 10'000;
  Cluster cluster(o);
  TpcbConfig config;
  config.scale = 2;
  config.accounts_per_branch = 50;
  ASSERT_TRUE(LoadTpcb(&cluster, config).ok());

  DriverOptions opts;
  opts.num_clients = 6;
  opts.duration_ms = 800;
  DriverResult r = RunWorkload(&cluster, opts, [&](Session* s, Rng& rng) {
    return RunTpcbTransaction(s, rng, config);
  });
  EXPECT_GT(r.committed, 20u);
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  for (int i = 0; i < cluster.num_segments(); ++i) {
    EXPECT_TRUE(cluster.mirror(i)->health().ok());
    EXPECT_GT(cluster.mirror(i)->applied(), 0u);
  }
}

TEST(MirrorTest, TruncateReplicates) {
  Cluster cluster(MirroredCluster());
  auto s = cluster.Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int, v int)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t SELECT i, i FROM generate_series(1, 50) i").ok());
  ASSERT_TRUE(s->Execute("TRUNCATE t").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO t VALUES (1, 1)").ok());
  Status consistent = cluster.VerifyMirrorsConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

// The FTS task waits out its period on a stop-aware condition variable, so
// shutdown returns promptly even with a probe period far longer than any
// acceptable shutdown.
TEST(MirrorTest, FtsStopsPromptlyDespiteLongProbePeriod) {
  ClusterOptions o = MirroredCluster();
  o.fts_enabled = true;
  o.fts_period_us = 2'000'000;  // 2 s between probe rounds
  auto cluster = std::make_unique<Cluster>(o);
  auto s = cluster->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE t (k int)").ok());
  s.reset();
  Stopwatch sw;
  cluster.reset();  // stops the FTS task mid-period
  EXPECT_LT(sw.ElapsedMicros(), 500'000) << "FTS shutdown waited out its period";
}

TEST(MirrorTest, DisabledByDefault) {
  ClusterOptions o;
  o.num_segments = 2;
  Cluster cluster(o);
  EXPECT_EQ(cluster.mirror(0), nullptr);
  EXPECT_EQ(cluster.segment(0)->change_log(), nullptr);
  // Catch-up/verify are no-ops without mirrors.
  EXPECT_TRUE(cluster.CatchUpMirrors().ok());
  EXPECT_TRUE(cluster.VerifyMirrorsConsistent().ok());
}

}  // namespace
}  // namespace gphtap
