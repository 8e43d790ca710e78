// PREPARE / EXECUTE / DEALLOCATE: parameter binding into the one generic
// plan, catalog-version replanning, and parity with the equivalent literal
// statements.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "sql/prepared_statement.h"

namespace gphtap {
namespace {

class PrepareExecuteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_segments = 3;
    cluster_ = std::make_unique<Cluster>(options);
    session_ = cluster_->Connect();
    ASSERT_TRUE(session_
                    ->Execute("CREATE TABLE acct (id int, grp int, bal int) "
                              "DISTRIBUTED BY (id)")
                    .ok());
    ASSERT_TRUE(session_
                    ->Execute("INSERT INTO acct SELECT i, i % 7, i * 10 "
                              "FROM generate_series(1, 200) i")
                    .ok());
  }

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Session> session_;
};

TEST_F(PrepareExecuteTest, SelectWithParamsMatchesLiteralStatement) {
  ASSERT_TRUE(
      session_->Execute("PREPARE q AS SELECT bal FROM acct WHERE id = $1").ok());
  for (int id : {1, 42, 200}) {
    auto prepared = session_->Execute("EXECUTE q(" + std::to_string(id) + ")");
    auto literal = session_->Execute("SELECT bal FROM acct WHERE id = " +
                                     std::to_string(id));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_TRUE(literal.ok());
    ASSERT_EQ(prepared->rows.size(), 1u);
    EXPECT_EQ(prepared->rows[0][0].int_val(), literal->rows[0][0].int_val());
  }
}

TEST_F(PrepareExecuteTest, GenericPlanReusedForNonKeyPredicate) {
  // grp is neither indexed nor the distribution key: the generic plan is as
  // good as a custom one, so PREPARE plans once and EXECUTE only substitutes.
  ASSERT_TRUE(session_
                  ->Execute("PREPARE byg AS SELECT count(*), sum(bal) FROM acct "
                            "WHERE grp = $1")
                  .ok());
  for (int g = 0; g < 7; ++g) {
    auto r = session_->Execute("EXECUTE byg(" + std::to_string(g) + ")");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto lit = session_->Execute("SELECT count(*), sum(bal) FROM acct WHERE grp = " +
                                 std::to_string(g));
    ASSERT_TRUE(lit.ok());
    EXPECT_EQ(r->rows[0][0].int_val(), lit->rows[0][0].int_val());
    EXPECT_EQ(r->rows[0][1].int_val(), lit->rows[0][1].int_val());
  }
}

TEST_F(PrepareExecuteTest, NoParamsPreparedStatement) {
  ASSERT_TRUE(
      session_->Execute("PREPARE total AS SELECT sum(bal) FROM acct").ok());
  auto r1 = session_->Execute("EXECUTE total");
  ASSERT_TRUE(r1.ok());
  auto r2 = session_->Execute("EXECUTE total");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows[0][0].int_val(), r2->rows[0][0].int_val());
}

TEST_F(PrepareExecuteTest, DmlThroughExecute) {
  ASSERT_TRUE(session_
                  ->Execute("PREPARE upd AS UPDATE acct SET bal = bal + $1 "
                            "WHERE id = $2")
                  .ok());
  ASSERT_TRUE(session_
                  ->Execute("PREPARE ins AS INSERT INTO acct (id, grp, bal) "
                            "VALUES ($1, $2, $3)")
                  .ok());
  auto upd = session_->Execute("EXECUTE upd(5, 1)");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->affected, 1);
  auto check = session_->Execute("SELECT bal FROM acct WHERE id = 1");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].int_val(), 15);

  ASSERT_TRUE(session_->Execute("EXECUTE ins(1000, 1, -7)").ok());
  auto inserted = session_->Execute("SELECT bal FROM acct WHERE id = 1000");
  ASSERT_TRUE(inserted.ok());
  ASSERT_EQ(inserted->rows.size(), 1u);
  EXPECT_EQ(inserted->rows[0][0].int_val(), -7);

  // Negative argument through the EXECUTE arg list (unary minus path).
  ASSERT_TRUE(session_->Execute("EXECUTE upd(-5, 1)").ok());
  check = session_->Execute("SELECT bal FROM acct WHERE id = 1");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].int_val(), 10);
}

TEST_F(PrepareExecuteTest, WrongArityRejected) {
  ASSERT_TRUE(
      session_->Execute("PREPARE q AS SELECT bal FROM acct WHERE id = $1").ok());
  EXPECT_FALSE(session_->Execute("EXECUTE q").ok());
  EXPECT_FALSE(session_->Execute("EXECUTE q(1, 2)").ok());
  EXPECT_TRUE(session_->Execute("EXECUTE q(1)").ok());
}

TEST_F(PrepareExecuteTest, UnknownAndDeallocatedStatementsRejected) {
  EXPECT_FALSE(session_->Execute("EXECUTE nope").ok());
  ASSERT_TRUE(
      session_->Execute("PREPARE q AS SELECT count(*) FROM acct").ok());
  ASSERT_TRUE(session_->Execute("EXECUTE q").ok());
  ASSERT_TRUE(session_->Execute("DEALLOCATE q").ok());
  EXPECT_FALSE(session_->Execute("EXECUTE q").ok());
  EXPECT_FALSE(session_->Execute("DEALLOCATE q").ok());
}

TEST_F(PrepareExecuteTest, DeallocateAllClearsEverything) {
  ASSERT_TRUE(session_->Execute("PREPARE a AS SELECT count(*) FROM acct").ok());
  ASSERT_TRUE(session_->Execute("PREPARE b AS SELECT sum(bal) FROM acct").ok());
  ASSERT_TRUE(session_->Execute("DEALLOCATE ALL").ok());
  EXPECT_FALSE(session_->Execute("EXECUTE a").ok());
  EXPECT_FALSE(session_->Execute("EXECUTE b").ok());
}

TEST_F(PrepareExecuteTest, PreparedStatementsAreSessionLocal) {
  ASSERT_TRUE(session_->Execute("PREPARE q AS SELECT count(*) FROM acct").ok());
  auto other = cluster_->Connect();
  EXPECT_FALSE(other->Execute("EXECUTE q").ok());
}

TEST_F(PrepareExecuteTest, CatalogChangeReplansGenericPlan) {
  ASSERT_TRUE(session_
                  ->Execute("PREPARE byg AS SELECT count(*) FROM acct "
                            "WHERE grp = $1")
                  .ok());
  auto before = session_->Execute("EXECUTE byg(3)");
  ASSERT_TRUE(before.ok());
  // DDL bumps the catalog version: the generic plan is stamped stale and the
  // next EXECUTE must replan (and still answer correctly).
  ASSERT_TRUE(session_->Execute("CREATE TABLE unrelated (x int)").ok());
  auto after = session_->Execute("EXECUTE byg(3)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows[0][0].int_val(), before->rows[0][0].int_val());
}

TEST_F(PrepareExecuteTest, ExecuteSeesLaterWrites) {
  ASSERT_TRUE(session_
                  ->Execute("PREPARE byg AS SELECT count(*) FROM acct "
                            "WHERE grp = $1")
                  .ok());
  auto before = session_->Execute("EXECUTE byg(0)");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      session_->Execute("INSERT INTO acct (id, grp, bal) VALUES (999, 0, 1)").ok());
  auto after = session_->Execute("EXECUTE byg(0)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int_val(), before->rows[0][0].int_val() + 1);
}

TEST_F(PrepareExecuteTest, ParamInArithmeticAndProjection) {
  ASSERT_TRUE(session_
                  ->Execute("PREPARE p AS SELECT bal + $1, grp FROM acct "
                            "WHERE id = $2")
                  .ok());
  auto r = session_->Execute("EXECUTE p(100, 2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 120);  // bal(id=2)=20, +100
}

TEST_F(PrepareExecuteTest, PrepareInsideTransactionRollsBackDmlOnly) {
  ASSERT_TRUE(session_
                  ->Execute("PREPARE upd AS UPDATE acct SET bal = bal + $1 "
                            "WHERE id = $2")
                  .ok());
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  ASSERT_TRUE(session_->Execute("EXECUTE upd(7, 3)").ok());
  ASSERT_TRUE(session_->Execute("ROLLBACK").ok());
  auto check = session_->Execute("SELECT bal FROM acct WHERE id = 3");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].int_val(), 30);  // update rolled back
  // The prepared statement survives the rollback (session state, not txn).
  EXPECT_TRUE(session_->Execute("EXECUTE upd(1, 3)").ok());
}

TEST_F(PrepareExecuteTest, DeleteAndInsertSelectMatchLiteralForms) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE copy (id int, grp int, bal int) "
                                "DISTRIBUTED BY (id)")
                  .ok());
  ASSERT_TRUE(session_->Execute("CREATE TABLE lit (id int, grp int, bal int) "
                                "DISTRIBUTED BY (id)")
                  .ok());
  ASSERT_TRUE(session_
                  ->Execute("PREPARE cp AS INSERT INTO copy (bal, id) "
                            "SELECT bal + $1, id FROM acct WHERE grp = $2")
                  .ok());
  auto prepared = session_->Execute("EXECUTE cp(5, 3)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto literal = session_->Execute(
      "INSERT INTO lit (bal, id) SELECT bal + 5, id FROM acct WHERE grp = 3");
  ASSERT_TRUE(literal.ok()) << literal.status().ToString();
  EXPECT_EQ(prepared->affected, literal->affected);
  EXPECT_GT(prepared->affected, 0);
  const std::string sums = "SELECT count(*), sum(id), sum(bal), count(grp) FROM ";
  auto a = session_->Execute(sums + "copy");
  auto b = session_->Execute(sums + "lit");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows[0], b->rows[0]);

  ASSERT_TRUE(session_->Execute("PREPARE del AS DELETE FROM copy WHERE id = $1").ok());
  ASSERT_TRUE(session_->Execute("PREPARE delg AS DELETE FROM copy WHERE bal > $1").ok());
  for (int id : {3, 10, 999}) {
    auto d = session_->Execute("EXECUTE del(" + std::to_string(id) + ")");
    auto l = session_->Execute("DELETE FROM lit WHERE id = " + std::to_string(id));
    ASSERT_TRUE(d.ok() && l.ok()) << d.status().ToString();
    EXPECT_EQ(d->affected, l->affected) << "id " << id;
  }
  auto d = session_->Execute("EXECUTE delg(1000)");
  auto l = session_->Execute("DELETE FROM lit WHERE bal > 1000");
  ASSERT_TRUE(d.ok() && l.ok());
  EXPECT_EQ(d->affected, l->affected);
  a = session_->Execute(sums + "copy");
  b = session_->Execute(sums + "lit");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows[0], b->rows[0]);
}

// INSERT ... SELECT is one statement and one transaction, prepared or not.
TEST_F(PrepareExecuteTest, InsertSelectIsOneStatement) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE s (a int, b int) DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session_
                  ->Execute("PREPARE ins AS INSERT INTO s SELECT i, i "
                            "FROM generate_series(1, $1) i")
                  .ok());
  for (const char* sql : {"INSERT INTO s SELECT i, i FROM generate_series(1, 10) i",
                          "EXECUTE ins(10)"}) {
    const uint64_t statements = session_->stats().statements;
    const uint64_t committed = cluster_->StatsSnapshot().counter("txn.committed");
    auto r = session_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_EQ(r->affected, 10) << sql;
    EXPECT_EQ(session_->stats().statements, statements + 1) << sql;
    EXPECT_EQ(cluster_->StatsSnapshot().counter("txn.committed"), committed + 1) << sql;
  }
  EXPECT_FALSE(session_->Execute("INSERT INTO s SELECT i FROM generate_series(1, 3) i").ok());
}

// A prepared point lookup planned before CREATE INDEX is re-planned by the
// next EXECUTE (the catalog version moved) and reads through the index.
TEST_F(PrepareExecuteTest, ExecuteAfterCreateIndexUsesTheIndex) {
  ASSERT_TRUE(session_->Execute("PREPARE q AS SELECT bal FROM acct WHERE grp = $1 AND id = $2")
                  .ok());
  auto before = session_->Execute("EXECUTE q(3, 10)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(session_->Execute("CREATE INDEX ON acct (grp)").ok());
  auto after = session_->Execute("EXECUTE q(3, 10)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows, before->rows);
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_EQ(after->rows[0][0].int_val(), 100);
  // The re-planned generic plan keys its IndexScan by the parameter.
  std::string plan = session_->GetPrepared("q")->plan->root->ToString();
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("$param1"), std::string::npos) << plan;
}

}  // namespace
}  // namespace gphtap
