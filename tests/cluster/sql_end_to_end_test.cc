// End-to-end SQL tests through the full stack: parser -> analyzer -> planner ->
// distributed executor -> storage, with real transactions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>

#include "api/gphtap.h"
#include "sql/prepared_statement.h"

namespace gphtap {
namespace {

class SqlEndToEndTest : public ::testing::Test {
 protected:
  SqlEndToEndTest() {
    ClusterOptions options;
    options.num_segments = 3;
    options.gdd_period_us = 20'000;
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  QueryResult Exec(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Status ExecErr(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.ok() ? Status::OK() : r.status();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlEndToEndTest, CreateInsertSelect) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  QueryResult ins = Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  EXPECT_EQ(ins.affected, 3);
  QueryResult sel = Exec("SELECT c1, c2 FROM t ORDER BY 1");
  ASSERT_EQ(sel.rows.size(), 3u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 1);
  EXPECT_EQ(sel.rows[2][1].int_val(), 30);
  EXPECT_EQ(sel.columns[0], "c1");
}

TEST_F(SqlEndToEndTest, RowsSpreadAcrossSegments) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  Exec("INSERT INTO t SELECT i, i FROM generate_series(1, 300) i");
  // Hash distribution should land rows on every segment.
  TableDef def = *cluster_->LookupTable("t");
  int nonempty = 0;
  uint64_t total = 0;
  for (int s = 0; s < cluster_->num_segments(); ++s) {
    uint64_t n = cluster_->segment(s)->GetTable(def.id)->StoredVersionCount();
    total += n;
    if (n > 0) ++nonempty;
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(nonempty, 3);
  QueryResult sel = Exec("SELECT count(*) FROM t");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 300);
}

TEST_F(SqlEndToEndTest, GenerateSeriesInSelectList) {
  // The paper's own example (Section 5.2).
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  QueryResult ins = Exec("INSERT INTO t (c1, c2) SELECT 1, generate_series(1,10)");
  EXPECT_EQ(ins.affected, 10);
  // All ten rows share distribution key 1 -> exactly one segment holds them.
  TableDef def = *cluster_->LookupTable("t");
  int nonempty = 0;
  for (int s = 0; s < cluster_->num_segments(); ++s) {
    if (cluster_->segment(s)->GetTable(def.id)->StoredVersionCount() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1);
}

TEST_F(SqlEndToEndTest, WhereFilterAndExpressions) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("INSERT INTO t SELECT i, i * 2 FROM generate_series(1, 100) i");
  QueryResult sel = Exec("SELECT c1 + c2 AS s FROM t WHERE c1 > 95 ORDER BY s");
  ASSERT_EQ(sel.rows.size(), 5u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 96 * 3);
  EXPECT_EQ(sel.columns[0], "s");
}

TEST_F(SqlEndToEndTest, UpdateAndDelete) {
  Exec("CREATE TABLE accounts (aid int, balance int) DISTRIBUTED BY (aid)");
  Exec("INSERT INTO accounts SELECT i, 100 FROM generate_series(1, 50) i");
  QueryResult upd = Exec("UPDATE accounts SET balance = balance + 5 WHERE aid = 7");
  EXPECT_EQ(upd.affected, 1);
  QueryResult sel = Exec("SELECT balance FROM accounts WHERE aid = 7");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 105);

  QueryResult del = Exec("DELETE FROM accounts WHERE aid <= 10");
  EXPECT_EQ(del.affected, 10);
  QueryResult count = Exec("SELECT count(*) FROM accounts");
  EXPECT_EQ(count.rows[0][0].int_val(), 40);
}

TEST_F(SqlEndToEndTest, UpdateAllRows) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("INSERT INTO t SELECT i, 0 FROM generate_series(1, 30) i");
  QueryResult upd = Exec("UPDATE t SET c2 = 1");
  EXPECT_EQ(upd.affected, 30);
  QueryResult sum = Exec("SELECT sum(c2) FROM t");
  EXPECT_EQ(sum.rows[0][0].int_val(), 30);
}

TEST_F(SqlEndToEndTest, AggregatesAndGroupBy) {
  Exec("CREATE TABLE sales (region int, amount int)");
  Exec("INSERT INTO sales SELECT i % 3, i FROM generate_series(1, 99) i");
  QueryResult agg = Exec(
      "SELECT region, count(*) AS n, sum(amount) AS total, min(amount), max(amount), "
      "avg(amount) FROM sales GROUP BY region ORDER BY region");
  ASSERT_EQ(agg.rows.size(), 3u);
  // region 0: 3,6,...,99 -> 33 rows, sum = 3*(1..33)=1683
  EXPECT_EQ(agg.rows[0][0].int_val(), 0);
  EXPECT_EQ(agg.rows[0][1].int_val(), 33);
  EXPECT_EQ(agg.rows[0][2].int_val(), 1683);
  EXPECT_EQ(agg.rows[0][3].int_val(), 3);
  EXPECT_EQ(agg.rows[0][4].int_val(), 99);
  EXPECT_DOUBLE_EQ(agg.rows[0][5].double_val(), 51.0);
}

TEST_F(SqlEndToEndTest, JoinRedistributes) {
  Exec("CREATE TABLE student (id int, class_id int) DISTRIBUTED BY (id)");
  Exec("CREATE TABLE class (cid int, size int) DISTRIBUTED BY (cid)");
  Exec("INSERT INTO student SELECT i, i % 10 FROM generate_series(1, 100) i");
  Exec("INSERT INTO class SELECT i, i * 100 FROM generate_series(0, 9) i");
  // Join on class_id = cid: student is NOT distributed by class_id, so a
  // redistribute motion is required.
  QueryResult join = Exec(
      "SELECT count(*) FROM student JOIN class ON student.class_id = class.cid");
  EXPECT_EQ(join.rows[0][0].int_val(), 100);

  QueryResult join2 = Exec(
      "SELECT s.id, c.size FROM student s JOIN class c ON s.class_id = c.cid "
      "WHERE s.id = 42");
  ASSERT_EQ(join2.rows.size(), 1u);
  EXPECT_EQ(join2.rows[0][1].int_val(), 200);  // 42 % 10 = 2 -> size 200
}

TEST_F(SqlEndToEndTest, CollocatedJoinOnDistributionKey) {
  Exec("CREATE TABLE a (k int, v int) DISTRIBUTED BY (k)");
  Exec("CREATE TABLE b (k int, w int) DISTRIBUTED BY (k)");
  Exec("INSERT INTO a SELECT i, i FROM generate_series(1, 60) i");
  Exec("INSERT INTO b SELECT i, -i FROM generate_series(31, 90) i");
  QueryResult join = Exec("SELECT count(*) FROM a JOIN b ON a.k = b.k");
  EXPECT_EQ(join.rows[0][0].int_val(), 30);
}

TEST_F(SqlEndToEndTest, ReplicatedTableJoin) {
  Exec("CREATE TABLE facts (k int, v int) DISTRIBUTED BY (k)");
  Exec("CREATE TABLE dims (k int, name text) DISTRIBUTED REPLICATED");
  Exec("INSERT INTO facts SELECT i, i FROM generate_series(1, 40) i");
  Exec("INSERT INTO dims VALUES (0, 'even'), (1, 'odd')");
  QueryResult join = Exec(
      "SELECT d.name, count(*) AS n FROM facts f JOIN dims d ON f.k % 2 = d.k "
      "GROUP BY d.name ORDER BY d.name");
  // Non-equi-ish: f.k % 2 = d.k is an equality between an expression and a
  // column — our planner treats it as residual, so this still must work via
  // broadcast nest loop.
  ASSERT_EQ(join.rows.size(), 2u);
  EXPECT_EQ(join.rows[0][1].int_val(), 20);
  EXPECT_EQ(join.rows[1][1].int_val(), 20);
}

TEST_F(SqlEndToEndTest, LimitStopsEarly) {
  Exec("CREATE TABLE big (c1 int, c2 int)");
  Exec("INSERT INTO big SELECT i, i FROM generate_series(1, 1000) i");
  QueryResult sel = Exec("SELECT c1 FROM big LIMIT 7");
  EXPECT_EQ(sel.rows.size(), 7u);
  QueryResult sorted = Exec("SELECT c1 FROM big ORDER BY c1 DESC LIMIT 3");
  ASSERT_EQ(sorted.rows.size(), 3u);
  EXPECT_EQ(sorted.rows[0][0].int_val(), 1000);
}

TEST_F(SqlEndToEndTest, ExplicitTransactionCommitAndRollback) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 1)");
  Exec("COMMIT");
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 1);

  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 2)");
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 2);  // own write
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 1);
}

TEST_F(SqlEndToEndTest, SnapshotIsolationAcrossSessions) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("INSERT INTO t VALUES (1, 1)");
  auto other = cluster_->Connect();

  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 2)");
  // Uncommitted insert invisible to the other session.
  auto r = other->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 1);
  Exec("COMMIT");
  r = other->Execute("SELECT count(*) FROM t");
  EXPECT_EQ(r->rows[0][0].int_val(), 2);
}

TEST_F(SqlEndToEndTest, FailedStatementAbortsTransaction) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 1)");
  ExecErr("SELECT c1 FROM missing_table");
  // Transaction is now failed: further statements are rejected.
  Status s = ExecErr("INSERT INTO t VALUES (2, 2)");
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  Exec("COMMIT");  // commit of a failed txn = rollback
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 0);
}

TEST_F(SqlEndToEndTest, OnePhaseVsTwoPhaseCommitCounting) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  // Single-segment write: 1PC.
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 1)");
  Exec("COMMIT");
  // Multi-segment write: 2PC (series spreads across segments).
  Exec("BEGIN");
  Exec("INSERT INTO t SELECT i, i FROM generate_series(1, 30) i");
  Exec("COMMIT");
  // Session stats must show one of each.
  // (stats() is accumulated on the session)
  EXPECT_GE(session_->stats().one_phase_commits, 1u);
  EXPECT_GE(session_->stats().two_phase_commits, 1u);
}

TEST_F(SqlEndToEndTest, AoAndColumnTablesThroughSql) {
  Exec("CREATE TABLE ao (k int, v int) WITH (appendonly=true, orientation=row)");
  Exec("CREATE TABLE aoc (k int, v int) WITH (appendonly=true, orientation=column, "
       "compresstype=rle)");
  Exec("INSERT INTO ao SELECT i, i FROM generate_series(1, 100) i");
  Exec("INSERT INTO aoc SELECT i, i FROM generate_series(1, 100) i");
  EXPECT_EQ(Exec("SELECT count(*) FROM ao").rows[0][0].int_val(), 100);
  EXPECT_EQ(Exec("SELECT sum(v) FROM aoc").rows[0][0].int_val(), 5050);
  // AO DML goes through the visibility map (serialized by ExclusiveLock).
  EXPECT_EQ(Exec("UPDATE ao SET v = 0 WHERE k = 1").affected, 1);
  EXPECT_EQ(Exec("SELECT sum(v) FROM ao").rows[0][0].int_val(), 5050 - 1);
  EXPECT_EQ(Exec("DELETE FROM aoc WHERE k <= 10").affected, 10);
  EXPECT_EQ(Exec("SELECT count(*) FROM aoc").rows[0][0].int_val(), 90);
}

TEST_F(SqlEndToEndTest, DictCompressedDoublesKeepEveryDigit) {
  // g is constant, so one segment holds all 1,024 rows and their group seals.
  // Printed with 6 significant digits, these values collapse to ~100 keys.
  Exec("CREATE TABLE t (g int, k int, v double) WITH (storage=ao_column, "
       "compresstype=dict) DISTRIBUTED BY (g)");
  Exec("INSERT INTO t SELECT 0, i, 100000.0 + 0.1 * i FROM generate_series(0, 1023) i");
  EXPECT_EQ(Exec("SELECT count(*) FROM t WHERE v = 100000.1").rows[0][0].int_val(), 1);
  EXPECT_EQ(Exec("SELECT max(v) FROM t").rows[0][0].double_val(), 100000.0 + 0.1 * 1023);
}

TEST_F(SqlEndToEndTest, AoDmlTransactional) {
  Exec("CREATE TABLE ao (k int, v int) WITH (appendonly=true) DISTRIBUTED BY (k)");
  Exec("INSERT INTO ao SELECT i, i FROM generate_series(1, 50) i");
  // Rolled-back AO delete leaves the rows visible.
  Exec("BEGIN");
  EXPECT_EQ(Exec("DELETE FROM ao WHERE k <= 25").affected, 25);
  EXPECT_EQ(Exec("SELECT count(*) FROM ao").rows[0][0].int_val(), 25);  // own view
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT count(*) FROM ao").rows[0][0].int_val(), 50);
  // Committed AO update replaces the row.
  Exec("UPDATE ao SET v = v + 100 WHERE k = 7");
  auto r = Exec("SELECT v FROM ao WHERE k = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 107);
  // AO writers serialize at the coordinator even with GDD on.
  auto other = cluster_->Connect();
  Exec("BEGIN");
  Exec("UPDATE ao SET v = 0 WHERE k = 8");
  auto blocked = std::async(std::launch::async, [&] {
    return other->Execute("UPDATE ao SET v = 1 WHERE k = 9").status();
  });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "AO writers must serialize on the relation lock";
  Exec("COMMIT");
  EXPECT_TRUE(blocked.get().ok());
}

TEST_F(SqlEndToEndTest, HavingFiltersGroups) {
  Exec("CREATE TABLE s (region int, amount int)");
  Exec("INSERT INTO s SELECT i % 4, i FROM generate_series(1, 40) i");
  // Sums: region 1: 1+5+...+37=190? compute: region r sum = sum of i in 1..40 with i%4==r.
  QueryResult r = Exec(
      "SELECT region, sum(amount) AS total FROM s GROUP BY region "
      "HAVING total > 200 ORDER BY region");
  // region sums: r0: 4+8+...+40 = 220; r1: 1+5+...+37 = 190; r2: 2+6+...+38 = 200;
  // r3: 3+7+...+39 = 210. HAVING > 200 keeps r0 and r3.
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
  EXPECT_EQ(r.rows[1][0].int_val(), 3);

  // HAVING with an aggregate not in the select list (hidden item).
  QueryResult r2 = Exec(
      "SELECT region FROM s GROUP BY region HAVING count(*) > 9 ORDER BY region");
  EXPECT_EQ(r2.rows.size(), 4u);
  ASSERT_EQ(r2.columns.size(), 1u);  // the hidden count(*) is chopped
  QueryResult r3 = Exec(
      "SELECT region FROM s GROUP BY region HAVING min(amount) >= 3 ORDER BY region");
  ASSERT_EQ(r3.rows.size(), 2u);  // regions 3 (min 3) and 0 (min 4)
}

TEST_F(SqlEndToEndTest, HavingErrors) {
  Exec("CREATE TABLE s (region int, amount int)");
  ExecErr("SELECT region FROM s GROUP BY region HAVING amount > 1");  // not grouped
  ExecErr("SELECT amount FROM s HAVING amount > 1");                  // no grouping
}

TEST_F(SqlEndToEndTest, DistinctDeduplicates) {
  Exec("CREATE TABLE d (a int, b int)");
  Exec("INSERT INTO d SELECT i % 3, i % 2 FROM generate_series(1, 60) i");
  QueryResult r = Exec("SELECT DISTINCT a, b FROM d ORDER BY a, b");
  EXPECT_EQ(r.rows.size(), 6u);
  QueryResult r2 = Exec("SELECT DISTINCT a FROM d WHERE b = 1 ORDER BY a");
  EXPECT_EQ(r2.rows.size(), 3u);
  // DISTINCT + LIMIT.
  QueryResult r3 = Exec("SELECT DISTINCT a FROM d LIMIT 2");
  EXPECT_EQ(r3.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, CreateIndexSpeedsLookupPath) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  Exec("INSERT INTO t SELECT i, i FROM generate_series(1, 200) i");
  Exec("CREATE INDEX ON t (c1)");
  QueryResult sel = Exec("SELECT c2 FROM t WHERE c1 = 123");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 123);
  // Index stays consistent across updates.
  Exec("UPDATE t SET c2 = 999 WHERE c1 = 123");
  sel = Exec("SELECT c2 FROM t WHERE c1 = 123");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].int_val(), 999);
}

TEST_F(SqlEndToEndTest, VacuumReclaimsAfterUpdates) {
  Exec("CREATE TABLE t (c1 int, c2 int)");
  Exec("INSERT INTO t SELECT i, 0 FROM generate_series(1, 50) i");
  for (int i = 0; i < 3; ++i) Exec("UPDATE t SET c2 = c2 + 1");
  QueryResult v = Exec("VACUUM t");
  EXPECT_GE(v.affected, 100);  // 3 updates x 50 rows leave >= 150 dead versions
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 50);
  EXPECT_EQ(Exec("SELECT sum(c2) FROM t").rows[0][0].int_val(), 150);
}

TEST_F(SqlEndToEndTest, PartitionedTableThroughSql) {
  Exec("CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
       "PARTITION BY RANGE (day) ("
       "PARTITION hot START 100 END 200, "
       "PARTITION cold START 0 END 100 WITH (appendonly=true, orientation=column))");
  Exec("INSERT INTO sales SELECT i, i FROM generate_series(0, 199) i");
  EXPECT_EQ(Exec("SELECT count(*) FROM sales").rows[0][0].int_val(), 200);
  EXPECT_EQ(Exec("SELECT sum(amount) FROM sales WHERE day >= 100").rows[0][0].int_val(),
            (100 + 199) * 100 / 2);
}

TEST_F(SqlEndToEndTest, DmlOnPartitionedRootModifiesEveryLeafKind) {
  // Figure 5's tiers: days [0,100) archived in an external file, [100,200) in
  // an AO-column leaf, [200,300) in the heap leaf that takes OLTP traffic.
  const std::string archive = ::testing::TempDir() + "sql_e2e_sales_archive.csv";
  {
    std::ofstream f(archive, std::ios::trunc);
    for (int day = 0; day < 100; ++day) f << day << "," << day * 3 << "\n";
  }
  Exec("CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
       "PARTITION BY RANGE (day) ("
       "PARTITION hot START 200 END 300, "
       "PARTITION cold START 100 END 200 WITH (appendonly=true, orientation=column), "
       "PARTITION archive START 0 END 100 EXTERNAL '" + archive + "')");
  Exec("INSERT INTO sales SELECT i, i FROM generate_series(100, 299) i");

  // The AO-column leaf takes UPDATE and DELETE through its visibility map.
  EXPECT_EQ(Exec("UPDATE sales SET amount = 0 WHERE day >= 100 AND day < 110").affected, 10);
  EXPECT_EQ(Exec("DELETE FROM sales WHERE day >= 190 AND day < 200").affected, 10);
  QueryResult cold = Exec("SELECT count(*), sum(amount) FROM sales "
                          "WHERE day >= 100 AND day < 200");
  ASSERT_EQ(cold.rows.size(), 1u);
  EXPECT_EQ(cold.rows[0][0].int_val(), 90);
  EXPECT_EQ(cold.rows[0][1].int_val(), (110 + 189) * 80 / 2);

  // The heap-leaf point UPDATE of examples/polymorphic_partitions.cpp.
  EXPECT_EQ(Exec("UPDATE sales SET amount = amount + 1000 WHERE day = 250").affected, 1);
  QueryResult hot = Exec("SELECT amount FROM sales WHERE day = 250");
  ASSERT_EQ(hot.rows.size(), 1u);
  EXPECT_EQ(hot.rows[0][0].int_val(), 1250);

  // Archived rows are read-only: a match fails instead of being skipped.
  auto update = session_->Execute("UPDATE sales SET amount = 0 WHERE day < 10");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kNotSupported);
  auto del = session_->Execute("DELETE FROM sales WHERE day < 200");
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(Exec("SELECT count(*) FROM sales").rows[0][0].int_val(), 290);
  std::remove(archive.c_str());
}

TEST_F(SqlEndToEndTest, ReplicatedDmlCountsRowsNotCopies) {
  Exec("CREATE TABLE r (k int, v int) DISTRIBUTED REPLICATED");
  EXPECT_EQ(Exec("INSERT INTO r VALUES (1, 1), (2, 2)").affected, 2);
  EXPECT_EQ(Exec("UPDATE r SET v = 5 WHERE k = 1").affected, 1);
  EXPECT_EQ(Exec("DELETE FROM r WHERE k = 2").affected, 1);
  EXPECT_EQ(Exec("SELECT v FROM r").rows.size(), 1u);
  // Every copy took the write: two inserted versions plus the update's.
  TableId id = cluster_->LookupTable("r")->id;
  for (int s = 0; s < cluster_->num_segments(); ++s) {
    EXPECT_EQ(cluster_->segment(s)->GetTable(id)->StoredVersionCount(), 3u) << s;
  }
}

TEST_F(SqlEndToEndTest, ProgrammaticIntsForDoubleColumnsAreWidened) {
  for (const std::string storage : {"", " WITH (appendonly=true, orientation=column)"}) {
    Exec("CREATE TABLE t (k int, v double)" + storage + " DISTRIBUTED BY (k)");
    TableDef def = *cluster_->LookupTable("t");
    ASSERT_TRUE(session_->ExecuteInsert(def, {Row{Datum(int64_t{3}), Datum(int64_t{3})}}).ok());
    for (const char* vectorized : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + vectorized);
      QueryResult r = Exec("SELECT v / 4 FROM t WHERE k = 3");
      ASSERT_EQ(r.rows.size(), 1u);
      ASSERT_TRUE(r.rows[0][0].is_double()) << storage << " " << r.rows[0][0].ToString();
      EXPECT_DOUBLE_EQ(r.rows[0][0].double_val(), 0.75) << storage << " " << vectorized;
    }
    // An UPDATE's int lands as a double too.
    Exec("UPDATE t SET v = 1 WHERE k = 3");
    QueryResult r = Exec("SELECT v / 4 FROM t WHERE k = 3");
    ASSERT_EQ(r.rows.size(), 1u);
    ASSERT_TRUE(r.rows[0][0].is_double()) << storage;
    EXPECT_DOUBLE_EQ(r.rows[0][0].double_val(), 0.25);
    Exec("SET vectorized_execution = default");
    Exec("DROP TABLE t");
  }
}

TEST_F(SqlEndToEndTest, ExplainCoversUpdateAndDelete) {
  Exec("CREATE TABLE pgbench_accounts (aid int, bid int, abalance int) DISTRIBUTED BY (aid)");
  Exec("CREATE INDEX ON pgbench_accounts (aid)");
  Exec("INSERT INTO pgbench_accounts SELECT i, 1, 0 FROM generate_series(1, 20) i");
  auto text = [](const QueryResult& r) {
    std::string out;
    for (const Row& row : r.rows) out += RowToString(row) + "\n";
    return out;
  };
  const std::string update =
      "UPDATE pgbench_accounts SET abalance = abalance + 1 WHERE aid = 7";
  QueryResult plan = Exec("EXPLAIN " + update);
  ASSERT_EQ(plan.rows.size(), 3u) << text(plan);
  EXPECT_NE(text(plan).find("(direct dispatch)"), std::string::npos) << text(plan);
  EXPECT_EQ(plan.rows[1][0].string_val().rfind("ModifyTable update", 0), 0u) << text(plan);
  EXPECT_NE(plan.rows[2][0].string_val().find("IndexScan"), std::string::npos) << text(plan);
  EXPECT_EQ(text(plan).find("Motion"), std::string::npos) << text(plan);

  QueryResult analyzed = Exec("EXPLAIN ANALYZE " + update);
  ASSERT_GE(analyzed.rows.size(), 3u) << text(analyzed);
  EXPECT_NE(analyzed.rows[1][0].string_val().find("actual rows=1 "), std::string::npos)
      << text(analyzed);
  EXPECT_NE(analyzed.rows[2][0].string_val().find("actual rows=1 "), std::string::npos)
      << text(analyzed);
  EXPECT_EQ(Exec("SELECT abalance FROM pgbench_accounts WHERE aid = 7").rows[0][0].int_val(), 1);

  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  QueryResult del = Exec("EXPLAIN DELETE FROM t");
  ASSERT_EQ(del.rows.size(), 3u) << text(del);
  EXPECT_EQ(del.rows[0][0].string_val(), "gang: segments {0,1,2}") << text(del);
  EXPECT_EQ(del.rows[1][0].string_val().rfind("ModifyTable delete", 0), 0u) << text(del);
  EXPECT_NE(del.rows[2][0].string_val().find("SeqScan"), std::string::npos) << text(del);
}

TEST_F(SqlEndToEndTest, TruncateDiscardsEverything) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  Exec("CREATE INDEX ON t (c1)");
  Exec("INSERT INTO t SELECT i, i FROM generate_series(1, 100) i");
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 100);
  Exec("TRUNCATE t");
  EXPECT_EQ(Exec("SELECT count(*) FROM t").rows[0][0].int_val(), 0);
  // Table and index remain usable.
  Exec("INSERT INTO t VALUES (5, 50)");
  auto r = Exec("SELECT c2 FROM t WHERE c1 = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 50);
  // AO tables truncate too.
  Exec("CREATE TABLE ao (k int) WITH (appendonly=true)");
  Exec("INSERT INTO ao SELECT i FROM generate_series(1, 20) i");
  Exec("TRUNCATE TABLE ao");
  EXPECT_EQ(Exec("SELECT count(*) FROM ao").rows[0][0].int_val(), 0);
  ExecErr("TRUNCATE missing_table");
}

TEST_F(SqlEndToEndTest, DropTableAndIfExists) {
  Exec("CREATE TABLE t (c1 int)");
  Exec("DROP TABLE t");
  ExecErr("SELECT * FROM t");
  Exec("DROP TABLE IF EXISTS t");
  ExecErr("DROP TABLE t");
}

TEST_F(SqlEndToEndTest, SelectStar) {
  Exec("CREATE TABLE t (c1 int, c2 text)");
  Exec("INSERT INTO t VALUES (1, 'hello')");
  QueryResult sel = Exec("SELECT * FROM t");
  ASSERT_EQ(sel.rows.size(), 1u);
  ASSERT_EQ(sel.columns.size(), 2u);
  EXPECT_EQ(sel.rows[0][1].string_val(), "hello");
}

TEST_F(SqlEndToEndTest, ShowTables) {
  Exec("CREATE TABLE t1 (c1 int)");
  Exec("CREATE TABLE t2 (c1 int) WITH (appendonly=true, orientation=column)");
  QueryResult r = Exec("SHOW TABLES");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlEndToEndTest, SyntaxErrorsSurface) {
  ExecErr("SELEC 1");
  ExecErr("SELECT FROM t");
  ExecErr("CREATE TABLE (c1 int)");
  ExecErr("INSERT INTO t VALUES (1,)");
}

TEST_F(SqlEndToEndTest, DistributionKeyUpdateRejected) {
  Exec("CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)");
  Exec("INSERT INTO t VALUES (1, 1)");
  auto r = session_->Execute("UPDATE t SET c1 = 2 WHERE c1 = 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

// x86 traps on INT64_MIN / -1 and INT64_MIN % -1. Both engines follow
// PostgreSQL's int8div / int8mod instead, on every storage kind.
TEST_F(SqlEndToEndTest, BigintMinDivisionByMinusOneDoesNotTrap) {
  for (const char* storage : {"heap", "ao_column"}) {
    const std::string table = std::string("big_") + storage;
    Exec("CREATE TABLE " + table + " (k int, v int) WITH (storage=" + storage +
         ") DISTRIBUTED BY (k)");
    Exec("INSERT INTO " + table + " VALUES (1, -9223372036854775807 - 1), (2, 7)");
    for (const char* mode : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + mode);
      const std::string where = std::string(storage) + ", vectorized_execution = " + mode;
      Status div = ExecErr("SELECT v / -1 FROM " + table);
      EXPECT_EQ(div.code(), StatusCode::kInvalidArgument) << where;
      EXPECT_NE(div.message().find("bigint out of range"), std::string::npos)
          << where << ": " << div.ToString();
      QueryResult mod = Exec("SELECT k, v % -1 FROM " + table + " ORDER BY k");
      ASSERT_EQ(mod.rows.size(), 2u) << where;
      EXPECT_EQ(mod.rows[0][1].int_val(), 0) << where;
      EXPECT_EQ(mod.rows[1][1].int_val(), 0) << where;
      QueryResult neg = Exec("SELECT v / -1 FROM " + table + " WHERE k = 2");
      ASSERT_EQ(neg.rows.size(), 1u) << where;
      EXPECT_EQ(neg.rows[0][0].int_val(), -7) << where;
    }
  }
}

// Integer + - * raise "bigint out of range" as PostgreSQL's int8pl / int8mi /
// int8mul do, instead of wrapping, on both engines and every storage kind. The
// literal -9223372036854775808 is INT64_MIN, and a literal outside int64 is
// rejected instead of saturated.
TEST_F(SqlEndToEndTest, BigintOverflowRaises) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  QueryResult lit = Exec("SELECT -9223372036854775808, -(9223372036854775807)");
  ASSERT_EQ(lit.rows.size(), 1u);
  EXPECT_EQ(lit.rows[0][0].int_val(), min);
  EXPECT_EQ(lit.rows[0][1].int_val(), min + 1);
  for (const char* sql : {"SELECT 9223372036854775807 + 1", "SELECT 9223372036854775807 * 2",
                          "SELECT -9223372036854775808 - 1",
                          "SELECT -(-9223372036854775808)"}) {
    Status s = ExecErr(sql);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(s.message().find("bigint out of range"), std::string::npos)
        << sql << ": " << s.ToString();
  }
  EXPECT_EQ(ExecErr("SELECT 9223372036854775808").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecErr("SELECT -9223372036854775809").code(), StatusCode::kInvalidArgument);

  for (const char* storage : {"heap", "ao_column"}) {
    const std::string table = std::string("ovf_") + storage;
    Exec("CREATE TABLE " + table + " (k int, v int) WITH (storage=" + storage +
         ") DISTRIBUTED BY (k)");
    Exec("INSERT INTO " + table +
         " VALUES (1, 9223372036854775807), (2, -9223372036854775808), (3, 7)");
    for (const char* mode : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + mode);
      const std::string where = std::string(storage) + ", vectorized_execution = " + mode;
      for (const char* expr : {"v + 1", "v - 1", "v * 2", "1 - v", "v * -1"}) {
        Status s = ExecErr(std::string("SELECT ") + expr + " FROM " + table);
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << where << ": " << expr;
        EXPECT_NE(s.message().find("bigint out of range"), std::string::npos)
            << where << ": " << expr << ": " << s.ToString();
      }
      QueryResult in_range =
          Exec("SELECT v + 1, v - 1, v * 2, v * -1 FROM " + table + " WHERE k = 3");
      ASSERT_EQ(in_range.rows.size(), 1u) << where;
      EXPECT_EQ(in_range.rows[0][0].int_val(), 8) << where;
      EXPECT_EQ(in_range.rows[0][1].int_val(), 6) << where;
      EXPECT_EQ(in_range.rows[0][2].int_val(), 14) << where;
      EXPECT_EQ(in_range.rows[0][3].int_val(), -7) << where;
      QueryResult min_row = Exec("SELECT v FROM " + table + " WHERE k = 2");
      ASSERT_EQ(min_row.rows.size(), 1u) << where;
      EXPECT_EQ(min_row.rows[0][0].int_val(), min) << where;
    }
  }

  // sum() and avg() add with int8pl's check. Two rows of the maximum overflow
  // wherever they land. In the split tables the two rows sit on different
  // segments, so each segment's partial sum fits and only the coordinator's
  // merge of the partials overflows.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int n = cluster_->num_segments();
  auto segment_of = [n](int64_t k) {
    return Cluster::SegmentForHash(HashRowKey(Row{Datum(k)}, {0}), n);
  };
  int64_t k2 = 2;
  while (segment_of(k2) == segment_of(1)) ++k2;
  for (const char* storage : {"heap", "ao_column"}) {
    const std::string twice = std::string("sum_max_") + storage;
    const std::string split = std::string("sum_split_") + storage;
    for (const std::string& table : {twice, split}) {
      Exec("CREATE TABLE " + table + " (k int, v int) WITH (storage=" + storage +
           ") DISTRIBUTED BY (k)");
    }
    Exec("INSERT INTO " + twice + " VALUES (1, 9223372036854775807), (2, 9223372036854775807)");
    Exec("INSERT INTO " + split + " VALUES (1, 9223372036854775807), (" +
         std::to_string(k2) + ", 1)");
    const TableDef def = *cluster_->LookupTable(split);
    int nonempty = 0;
    for (int seg = 0; seg < n; ++seg) {
      nonempty += cluster_->segment(seg)->GetTable(def.id)->StoredVersionCount() > 0;
    }
    ASSERT_EQ(nonempty, 2) << split << ": the two rows must sit on two segments";
    for (const char* mode : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + mode);
      const std::string where = std::string(storage) + ", vectorized_execution = " + mode;
      for (const std::string& table : {twice, split}) {
        for (const char* agg : {"sum(v)", "avg(v)"}) {
          Status s = ExecErr(std::string("SELECT ") + agg + " FROM " + table);
          EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << where << ": " << agg << " " << table;
          EXPECT_NE(s.message().find("bigint out of range"), std::string::npos)
              << where << ": " << agg << " " << table << ": " << s.ToString();
        }
      }
      QueryResult fits = Exec("SELECT sum(v), avg(v) FROM " + split + " WHERE k = 1");
      ASSERT_EQ(fits.rows.size(), 1u) << where;
      EXPECT_EQ(fits.rows[0][0].int_val(), max) << where;
      EXPECT_DOUBLE_EQ(fits.rows[0][1].double_val(), static_cast<double>(max)) << where;
    }
  }
}

// Every SELECT binds and plans: a FROM-less SELECT and a generate_series()
// FROM item are function scans, so ORDER BY, LIMIT, DISTINCT, GROUP BY and
// HAVING apply to them as they do to stored tables.
TEST_F(SqlEndToEndTest, FunctionScanSelectsReturnPostgresAnswers) {
  using Ints = std::vector<int64_t>;
  auto column = [](const QueryResult& r, size_t c) {
    Ints out;
    for (const Row& row : r.rows) out.push_back(row[c].int_val());
    return out;
  };
  EXPECT_EQ(column(Exec("SELECT i FROM generate_series(1, 5) i ORDER BY i DESC"), 0),
            (Ints{5, 4, 3, 2, 1}));
  EXPECT_EQ(column(Exec("SELECT i FROM generate_series(1, 5) i ORDER BY 1 DESC LIMIT 2"), 0),
            (Ints{5, 4}));
  EXPECT_EQ(Exec("SELECT DISTINCT i % 2 FROM generate_series(1, 10) i").rows.size(), 2u);
  QueryResult grouped = Exec(
      "SELECT a, count(*) FROM generate_series(1, 4) a, generate_series(1, 3) b "
      "WHERE b <= a GROUP BY a HAVING count(*) > 1 ORDER BY a");
  EXPECT_EQ(column(grouped, 0), (Ints{2, 3, 4}));
  EXPECT_EQ(column(grouped, 1), (Ints{2, 3, 3}));
  QueryResult count = Exec("SELECT count(*), sum(i) FROM generate_series(1, 10) i");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].int_val(), 10);
  EXPECT_EQ(count.rows[0][1].int_val(), 55);
  // A FROM-less SELECT reads one row with no columns.
  EXPECT_EQ(Exec("SELECT count(*)").rows[0][0].int_val(), 1);

  // Select-list series zip as PostgreSQL 10's ProjectSet does, and stop at the
  // end of int64 without stepping past it.
  QueryResult zipped = Exec("SELECT generate_series(1, 3) AS a, generate_series(1, 2) AS b");
  ASSERT_EQ(zipped.rows.size(), 3u);
  EXPECT_EQ(column(zipped, 0), (Ints{1, 2, 3}));
  EXPECT_EQ(zipped.rows[1][1].int_val(), 2);
  EXPECT_TRUE(zipped.rows[2][1].is_null());
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(column(Exec("SELECT generate_series(9223372036854775806, 9223372036854775807)"), 0),
            (Ints{max - 1, max}));
  EXPECT_EQ(column(Exec("SELECT generate_series(-9223372036854775808, 9223372036854775807) "
                        "LIMIT 2"),
                   0),
            (Ints{min, min + 1}));
  EXPECT_TRUE(Exec("SELECT generate_series(3, 1)").rows.empty());

  for (const char* sql : {"SELECT generate_series(1.5, 3)", "SELECT generate_series('a', 3)",
                          "SELECT i FROM generate_series(1, 'b') i", "SELECT *"}) {
    Status s = ExecErr(sql);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sql << ": " << s.ToString();
  }
  EXPECT_EQ(ExecErr("SELECT 1 + generate_series(1, 3)").code(), StatusCode::kNotSupported);
  EXPECT_EQ(ExecErr("SELECT generate_series(1, 3), count(*)").code(),
            StatusCode::kNotSupported);
}

// A FROM-less or function-scan SELECT is a statement like any other: the
// failed-block check, statement_timeout, LIMIT and EXPLAIN [ANALYZE] apply.
TEST_F(SqlEndToEndTest, FunctionScansRunAsStatements) {
  Exec("BEGIN");
  ExecErr("SELECT k FROM no_such_table");
  EXPECT_EQ(ExecErr("SELECT 1").code(), StatusCode::kAborted);
  Exec("ROLLBACK");

  Exec("SET statement_timeout = 50");
  EXPECT_EQ(ExecErr("SELECT i FROM generate_series(1, 10000000) i WHERE i < 0").code(),
            StatusCode::kTimedOut);
  Exec("SET statement_timeout = 0");

  auto text = [](const QueryResult& r) {
    std::string out;
    for (const Row& row : r.rows) out += RowToString(row) + "\n";
    return out;
  };
  QueryResult plain = Exec("EXPLAIN SELECT 1");
  ASSERT_EQ(plain.rows.size(), 3u) << text(plain);
  EXPECT_EQ(plain.rows[0][0].string_val(), "gang: segments {}") << text(plain);
  EXPECT_NE(plain.rows[2][0].string_val().find("FunctionScan"), std::string::npos)
      << text(plain);
  QueryResult series = Exec("EXPLAIN SELECT i FROM generate_series(1, 10) i WHERE i > 3");
  EXPECT_NE(text(series).find("FunctionScan generate_series(1, 10) filter="), std::string::npos)
      << text(series);
  EXPECT_EQ(text(series).find("Motion"), std::string::npos) << text(series);

  QueryResult analyzed = Exec("EXPLAIN ANALYZE SELECT 1");
  EXPECT_NE(text(analyzed).find("actual rows=1 "), std::string::npos) << text(analyzed);
  QueryResult limited =
      Exec("EXPLAIN ANALYZE SELECT i FROM generate_series(1, 3000000) i LIMIT 1");
  std::string scan;
  for (const Row& row : limited.rows) {
    if (row[0].string_val().find("FunctionScan") != std::string::npos) scan = row[0].string_val();
  }
  EXPECT_NE(scan.find("(actual rows=1 "), std::string::npos) << text(limited);
}

// Any node computes a function scan, so it joins a distributed table where
// the table's rows live, with no motion under the join.
TEST_F(SqlEndToEndTest, FunctionScanJoinsStoredTableWithoutMotion) {
  Exec("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)");
  Exec("INSERT INTO t SELECT i, i * 10 FROM generate_series(1, 20) i");
  const std::string join =
      "SELECT t.k, t.v, g FROM t JOIN generate_series(5, 8) g ON t.k = g ORDER BY 1";
  QueryResult r = Exec(join);
  ASSERT_EQ(r.rows.size(), 4u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i][0].int_val(), static_cast<int64_t>(i) + 5);
    EXPECT_EQ(r.rows[i][1].int_val(), r.rows[i][0].int_val() * 10);
    EXPECT_EQ(r.rows[i][2].int_val(), r.rows[i][0].int_val());
  }
  EXPECT_EQ(Exec("SELECT count(*) FROM t, generate_series(1, 3) g").rows[0][0].int_val(), 60);
  for (const std::string& sql : {join, std::string("SELECT k, g FROM t, generate_series(1, 3) g")}) {
    std::string plan;
    for (const Row& row : Exec("EXPLAIN " + sql).rows) plan += RowToString(row) + "\n";
    EXPECT_NE(plan.find("FunctionScan"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("Broadcast"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("Redistribute"), std::string::npos) << plan;
  }
}

TEST_F(SqlEndToEndTest, PreparedFunctionScanUsesAGenericPlan) {
  Exec("PREPARE p AS SELECT i FROM generate_series(1, $1) i");
  ASSERT_NE(session_->GetPrepared("p"), nullptr);
  EXPECT_NE(session_->GetPrepared("p")->plan, nullptr);
  for (int n : {3, 7}) {
    EXPECT_EQ(Exec("EXECUTE p(" + std::to_string(n) + ")").rows.size(), static_cast<size_t>(n));
  }
}

// A function scan is a relation like any other: each shape returns the same
// rows over generate_series(1, 500) as over stored heap and AO-column copies
// of it, on both engines. Rows compare sorted where the shape has no ORDER BY.
TEST_F(SqlEndToEndTest, FunctionScanAgreesWithStoredCopies) {
  Exec("CREATE TABLE dim (k int, name text) DISTRIBUTED BY (k)");
  Exec("INSERT INTO dim SELECT i * 10, 'd' FROM generate_series(1, 60) i");
  for (const char* storage : {"heap", "ao_column"}) {
    Exec(std::string("CREATE TABLE g_") + storage + " (i int) WITH (storage=" + storage +
         ") DISTRIBUTED BY (i)");
    Exec(std::string("INSERT INTO g_") + storage + " SELECT i FROM generate_series(1, 500) i");
  }
  const std::vector<std::pair<std::string, bool>> shapes = {
      {"SELECT i FROM @ WHERE i % 13 = 0", false},
      {"SELECT i, i * 2 FROM @ ORDER BY i DESC LIMIT 7", true},
      {"SELECT i FROM @ WHERE i < 40 ORDER BY 1 DESC", true},
      {"SELECT DISTINCT i % 7 FROM @", false},
      {"SELECT DISTINCT i % 5 FROM @ ORDER BY 1 DESC LIMIT 3", true},
      {"SELECT j, count(*), sum(i) FROM @, generate_series(1, 4) j WHERE i % j = 0 "
       "GROUP BY j HAVING sum(i) > 40000",
       false},
      {"SELECT count(*), sum(i), avg(i), min(i), max(i) FROM @", true},
      {"SELECT count(*) FROM @ WHERE i >= 100 AND i < 200", true},
      {"SELECT i, j FROM @, generate_series(1, 3) j WHERE i > 495", false},
      {"SELECT i, name FROM @ JOIN dim ON i = dim.k", false},
  };
  auto rows_of = [&](const std::string& shape, const std::string& relation, bool ordered) {
    std::string sql = shape;
    sql.replace(sql.find('@'), 1, relation);
    std::vector<std::string> out;
    for (const Row& row : Exec(sql).rows) out.push_back(RowToString(row));
    if (!ordered) std::sort(out.begin(), out.end());
    return out;
  };
  for (const char* mode : {"on", "off"}) {
    Exec(std::string("SET vectorized_execution = ") + mode);
    for (const auto& [shape, ordered] : shapes) {
      std::vector<std::string> series = rows_of(shape, "generate_series(1, 500) i", ordered);
      EXPECT_FALSE(series.empty()) << shape;
      for (const char* table : {"g_heap", "g_ao_column"}) {
        EXPECT_EQ(rows_of(shape, table, ordered), series)
            << shape << " over " << table << ", vectorized_execution = " << mode;
      }
    }
  }
}

// EXPLAIN ANALYZE credits each partition leaf's rows to that leaf's store.
TEST_F(SqlEndToEndTest, ExplainAnalyzeCreditsEachPartitionLeafToItsStore) {
  Exec("CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
       "PARTITION BY RANGE (day) ("
       "PARTITION hot START 200 END 300, "
       "PARTITION cold START 0 END 200 WITH (appendonly=true, orientation=column))");
  Exec("INSERT INTO sales SELECT i, i FROM generate_series(0, 299) i");
  std::string plan;
  for (const Row& row : Exec("EXPLAIN ANALYZE SELECT count(*) FROM sales").rows) {
    plan += RowToString(row) + "\n";
  }
  EXPECT_NE(plan.find("(stores: ao-column=200 heap=100)"), std::string::npos) << plan;
}

// Integer literals assigned to a double column are stored as doubles
// (PostgreSQL's assignment cast). Storing the int instead made sealing a
// column group abort the process and made `w / 4` divide as integers.
class AssignmentCastTest : public ::testing::Test {
 protected:
  // One segment, so 1100 rows fill a 1024-row column group.
  void Start(bool delta_store) {
    ClusterOptions options;
    options.num_segments = 1;
    options.delta_store_enabled = delta_store;
    options.delta_seal_period_us = 0;  // seal only when the test says so
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
  }

  void Exec(const std::string& sql) {
    auto r = session_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  // `w / 4` for row k, under both the vectorized and the row engine.
  void ExpectQuarter(int64_t k, double want) {
    for (const char* mode : {"on", "off"}) {
      Exec(std::string("SET vectorized_execution = ") + mode);
      auto r = session_->Execute("SELECT w / 4 FROM t WHERE k = " + std::to_string(k));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u);
      ASSERT_TRUE(r->rows[0][0].is_double()) << "vectorized_execution = " << mode;
      EXPECT_DOUBLE_EQ(r->rows[0][0].double_val(), want) << "vectorized_execution = " << mode;
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(AssignmentCastTest, IntLiteralsSealIntoAoColumnGroups) {
  Start(/*delta_store=*/false);
  Exec("CREATE TABLE t (k int, w double) WITH (storage=ao_column) DISTRIBUTED BY (k)");
  for (int i = 1; i <= 1100; ++i) {  // the 1024th insert seals a group
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 2)");
  }
  ExpectQuarter(1, 0.5);
  Exec("INSERT INTO t SELECT i, 6 FROM generate_series(1101, 2200) i");
  ExpectQuarter(2200, 1.5);
  Exec("UPDATE t SET w = 3 WHERE k = 2");
  ExpectQuarter(2, 0.75);
}

TEST_F(AssignmentCastTest, IntLiteralsSealIntoDeltaGroups) {
  Start(/*delta_store=*/true);
  Exec("CREATE TABLE t (k int, w double) DISTRIBUTED BY (k)");
  for (int i = 1; i <= 1100; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 2)");
  }
  Exec("UPDATE t SET w = 3 WHERE k = 2");
  Segment* seg = cluster_->segment(0);
  ASSERT_TRUE(
      cluster_->delta_index(0)->WaitForApplied(seg->change_log()->size(), 5'000'000).ok());
  ASSERT_TRUE(cluster_->SealDeltaNow(0).ok());
  uint64_t sealed = 0;
  for (const auto& table : cluster_->delta_index(0)->TableStatuses()) {
    sealed += table.stats.sealed_groups;
  }
  EXPECT_EQ(sealed, 1u);
  ExpectQuarter(1, 0.5);
  ExpectQuarter(2, 0.75);
}

}  // namespace
}  // namespace gphtap
