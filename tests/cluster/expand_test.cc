// Online cluster expansion: AddSegments at runtime, per-table incremental
// rebalancing (snapshot copy + change-log catchup + brief cutover), correct
// reads in the mixed pre-rebalance state, a crash during the rebalance copy
// phase recovering into a clean coordinator-driven retry, and new segments
// actually serving data afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "integration/actor.h"

namespace gphtap {
namespace {

class ExpandTest : public ::testing::Test {
 protected:
  void StartCluster(int num_segments = 2) {
    ClusterOptions options;
    options.num_segments = num_segments;
    options.crash_recovery_enabled = true;  // rebalance retry after a crash
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  QueryResult Exec(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::set<int64_t> Keys(const std::string& table) {
    std::set<int64_t> out;
    auto r = session_->Execute("SELECT k FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      for (const Row& row : r->rows) out.insert(row[0].int_val());
    }
    return out;
  }

  int64_t Sum(const std::string& table) {
    auto r = session_->Execute("SELECT sum(v) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && !r->rows.empty() ? r->rows[0][0].int_val() : -1;
  }

  uint64_t RowsOnSegment(int seg, const std::string& table) {
    auto def = cluster_->LookupTable(table);
    EXPECT_TRUE(def.ok());
    Table* t = cluster_->segment(seg)->GetTable(def->id);
    return t == nullptr ? 0 : t->StoredVersionCount();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(ExpandTest, AddSegmentsKeepsExistingTablesRoutedToOldSpan) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 50; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  std::set<int64_t> before = Keys("t");

  auto n = cluster_->AddSegments(2);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 4);

  // Pre-rebalance: reads are complete and writes still route to the old span
  // (the new segments would never be probed by hash routing on span 2).
  EXPECT_EQ(Keys("t"), before);
  Exec("INSERT INTO t VALUES (100, 1)");
  EXPECT_EQ(Sum("t"), 51);
  EXPECT_EQ(RowsOnSegment(2, "t") + RowsOnSegment(3, "t"), 0u);

  // New tables created after the expansion span all four segments.
  Exec("CREATE TABLE t2 (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 64; ++i) {
    Exec("INSERT INTO t2 VALUES (" + std::to_string(i) + ", 1)");
  }
  EXPECT_GT(RowsOnSegment(2, "t2") + RowsOnSegment(3, "t2"), 0u);
}

TEST_F(ExpandTest, RebalanceMovesHashTableOntoNewSegments) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 80; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
         std::to_string(i) + ")");
  }
  std::set<int64_t> before = Keys("t");
  int64_t sum = Sum("t");

  ASSERT_TRUE(cluster_->AddSegments(2).ok());
  auto report = session_->RebalanceTable("t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->cutover_complete);
  EXPECT_GT(report->rows_moved, 0u);

  // Same data, now with live rows on the added segments.
  EXPECT_EQ(Keys("t"), before);
  EXPECT_EQ(Sum("t"), sum);
  EXPECT_GT(RowsOnSegment(2, "t") + RowsOnSegment(3, "t"), 0u);

  // Routing follows the new span: direct-dispatch point reads still find
  // every key, and new writes land on the widened modulus.
  for (int i = 0; i < 80; i += 7) {
    auto r = Exec("SELECT v FROM t WHERE k = " + std::to_string(i));
    ASSERT_EQ(r.rows.size(), 1u) << "k=" << i;
    EXPECT_EQ(r.rows[0][0].int_val(), i);
  }
  // Idempotent: a second rebalance is a no-op.
  auto again = session_->RebalanceTable("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows_moved, 0u);
  EXPECT_EQ(Sum("t"), sum);
}

TEST_F(ExpandTest, RebalanceRunsUnderConcurrentWrites) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 60; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  ASSERT_TRUE(cluster_->AddSegments(1).ok());

  // Writers keep inserting while the rebalance copies; every row must survive
  // the cutover exactly once, whether it moved, arrived mid-copy (change-log
  // catchup), or landed after the span flipped.
  Actor writer(cluster_.get());
  std::vector<std::future<Status>> writes;
  for (int i = 100; i < 160; ++i) {
    writes.push_back(
        writer.Run("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)"));
  }
  auto report = session_->RebalanceTable("t");
  for (auto& w : writes) ASSERT_TRUE(w.get().ok());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(Keys("t").size(), 120u);
  EXPECT_EQ(Sum("t"), 120);
}

// A prepared UPDATE planned on the old span re-plans once expansion and the
// rebalance move the catalog version, and finds every row at its new home.
TEST_F(ExpandTest, PreparedUpdateFollowsRowsAfterRebalance) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  Exec("INSERT INTO t SELECT i, 0 FROM generate_series(0, 39) i");
  Exec("PREPARE up AS UPDATE t SET v = v + 1 WHERE k = $1");
  EXPECT_EQ(Exec("EXECUTE up(0)").affected, 1);
  ASSERT_TRUE(cluster_->AddSegments(2).ok());
  auto report = session_->RebalanceTable("t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->rows_moved, 0u);
  for (int k = 0; k < 40; ++k) {
    EXPECT_EQ(Exec("EXECUTE up(" + std::to_string(k) + ")").affected, 1) << "k=" << k;
  }
  EXPECT_EQ(Sum("t"), 41);
}

// Lock-then-rescan for prepared DML: an EXECUTE planned before a rebalance,
// and queued for its coordinator lock behind the cutover, checks the catalog
// version only once the lock is granted, so it re-plans and updates the row
// at its new home instead of matching nothing at the old one. A resource
// group slot holds the EXECUTE between the start of its statement and its
// lock request while the rebalance raises its flag and copies.
TEST_F(ExpandTest, PreparedUpdateQueuedBehindCutoverReplans) {
  ClusterOptions options;
  options.num_segments = 2;
  options.resource_groups_enabled = true;
  cluster_ = std::make_unique<Cluster>(options);
  session_ = cluster_->Connect();
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  Exec("INSERT INTO t SELECT i, 0 FROM generate_series(0, 39) i");
  Exec("CREATE RESOURCE GROUP one_slot WITH (CONCURRENCY=1)");
  Exec("CREATE ROLE app RESOURCE GROUP one_slot");
  ASSERT_TRUE(cluster_->AddSegments(1).ok());
  int64_t key = 0;  // a key whose home moves when the span widens 2 -> 3
  auto home = [&](int span) { return Cluster::SegmentForHash(HashRowKey({Datum(key)}, {0}), span); };
  while (home(2) == home(3)) ++key;
  auto app = cluster_->Connect("app");
  ASSERT_TRUE(app->Execute("PREPARE up AS UPDATE t SET v = v + 1 WHERE k = $1").ok());
  const TableId table = cluster_->LookupTable("t")->id;
  auto wait_for_waiter = [&](LockMode mode) {
    for (int i = 0; i < 5000; ++i) {
      for (const auto& l : cluster_->coordinator_locks().SnapshotLocks()) {
        if (!l.granted && l.mode == mode && l.tag == LockTag::Relation(table)) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  Actor slot_holder(cluster_.get(), "app");
  Actor writer(cluster_.get());
  ASSERT_TRUE(slot_holder.RunSync("BEGIN").ok());
  ASSERT_TRUE(writer.RunSync("BEGIN").ok());
  ASSERT_TRUE(writer.RunSync("INSERT INTO t VALUES (1000, 0)").ok());  // stalls the cutover
  auto execute = std::async(std::launch::async, [&] {
    return app->Execute("EXECUTE up(" + std::to_string(key) + ")");
  });
  ASSERT_EQ(execute.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  auto rebalancer = cluster_->Connect();
  auto rebalance = std::async(std::launch::async, [&] { return rebalancer->RebalanceTable("t"); });
  ASSERT_TRUE(wait_for_waiter(LockMode::kAccessExclusive)) << "the cutover never queued";
  ASSERT_TRUE(slot_holder.RunSync("COMMIT").ok());  // the EXECUTE now asks for its lock
  ASSERT_TRUE(wait_for_waiter(LockMode::kRowExclusive)) << "the EXECUTE never queued";
  ASSERT_TRUE(writer.RunSync("COMMIT").ok());  // the cutover runs and commits
  auto updated = execute.get();
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->affected, 1);
  auto report = rebalance.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->cutover_complete);
  auto v = Exec("SELECT v FROM t WHERE k = " + std::to_string(key));
  ASSERT_EQ(v.rows.size(), 1u);
  EXPECT_EQ(v.rows[0][0].int_val(), 1);
}

TEST_F(ExpandTest, CrashDuringRebalanceCopyRecoversAndRetries) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 60; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  ASSERT_TRUE(cluster_->AddSegments(2).ok());

  // Segment 1 dies while the copy phase reads it: the statement aborts, the
  // staged copies never commit, and the table stays in the pre-cutover state
  // (rebalancing flag up, reads full fan-out, writes on the old span).
  cluster_->faults().ArmOneShot(fault_points::kCrashDuringRebalanceCopy, 1);
  auto failed = session_->RebalanceTable("t");
  ASSERT_FALSE(failed.ok());

  ASSERT_TRUE(cluster_->RecoverSegment(1).ok());
  EXPECT_EQ(Keys("t").size(), 60u);
  EXPECT_EQ(Sum("t"), 60);

  // Coordinator-driven retry completes the migration.
  auto retry = session_->RebalanceTable("t");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->cutover_complete);
  EXPECT_EQ(Keys("t").size(), 60u);
  EXPECT_EQ(Sum("t"), 60);
  EXPECT_GT(RowsOnSegment(2, "t") + RowsOnSegment(3, "t"), 0u);
}

TEST_F(ExpandTest, RebalanceReplicatedTableCopiesToNewSegments) {
  StartCluster(2);
  Exec("CREATE TABLE dims (k int, v int) DISTRIBUTED REPLICATED");
  Exec("CREATE TABLE facts (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 20; ++i) {
    Exec("INSERT INTO dims VALUES (" + std::to_string(i) + ", " +
         std::to_string(i) + ")");
    Exec("INSERT INTO facts VALUES (" + std::to_string(i) + ", 1)");
  }
  ASSERT_TRUE(cluster_->AddSegments(2).ok());

  // Expansion runbook order: sync replicated tables first, then hash tables
  // (a collocated join on the widened gang needs the dims copy everywhere).
  auto rep = session_->RebalanceTable("dims");
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(RowsOnSegment(2, "dims"), 20u);
  EXPECT_EQ(RowsOnSegment(3, "dims"), 20u);
  auto hash = session_->RebalanceTable("facts");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();

  auto r = Exec(
      "SELECT sum(dims.v) FROM facts JOIN dims ON facts.k = dims.k");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 190);  // 0+1+...+19
}

TEST_F(ExpandTest, RebalanceSqlStatementAndTxnBlockRejection) {
  StartCluster(2);
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  for (int i = 0; i < 30; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  ASSERT_TRUE(cluster_->AddSegments(1).ok());

  // Inside an explicit block the command is rejected outright.
  Exec("BEGIN");
  auto blocked = session_->Execute("REBALANCE TABLE t");
  EXPECT_FALSE(blocked.ok());
  Exec("ROLLBACK");

  auto r = Exec("REBALANCE TABLE t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Sum("t"), 30);
}

}  // namespace
}  // namespace gphtap
