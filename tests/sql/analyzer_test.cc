#include "sql/analyzer.h"

#include <gtest/gtest.h>

#include "cluster/session.h"
#include "sql/parser.h"

namespace gphtap {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() {
    ClusterOptions o;
    o.num_segments = 2;
    cluster_ = std::make_unique<Cluster>(o);
    auto s = cluster_->Connect();
    EXPECT_TRUE(
        s->Execute("CREATE TABLE t (a int, b int, c text) DISTRIBUTED BY (a)").ok());
    EXPECT_TRUE(s->Execute("CREATE TABLE u (a int, d int) DISTRIBUTED BY (a)").ok());
  }

  StatusOr<SelectQuery> Bind(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    Analyzer analyzer(cluster_.get());
    return analyzer.BindSelect(*stmt->select);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(AnalyzerTest, ResolvesColumnsInCombinedLayout) {
  auto q = Bind("SELECT t.b, u.d FROM t JOIN u ON t.a = u.a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->items.size(), 2u);
  EXPECT_EQ(q->items[0].expr->column, 1);  // t.b
  EXPECT_EQ(q->items[1].expr->column, 4);  // u.d (offset 3 + 1)
  EXPECT_EQ(q->quals.size(), 1u);
}

TEST_F(AnalyzerTest, AmbiguousColumnRejected) {
  auto q = Bind("SELECT a FROM t, u");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(AnalyzerTest, UnknownColumnAndTableRejected) {
  EXPECT_EQ(Bind("SELECT nope FROM t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Bind("SELECT a FROM missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Bind("SELECT t.b FROM t x").status().code(), StatusCode::kNotFound)
      << "alias replaces the table name";
}

TEST_F(AnalyzerTest, AliasesResolve) {
  auto q = Bind("SELECT x.b FROM t x WHERE x.a = 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->items[0].expr->column, 1);
}

TEST_F(AnalyzerTest, WhereSplitsConjuncts) {
  auto q = Bind("SELECT b FROM t WHERE a > 1 AND b < 5 AND c = 'x'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->quals.size(), 3u);
  // OR stays as one qual.
  auto q2 = Bind("SELECT b FROM t WHERE a > 1 OR b < 5");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->quals.size(), 1u);
}

TEST_F(AnalyzerTest, AggregatesAndGroupByBind) {
  auto q = Bind("SELECT b, count(*) AS n, sum(a + 1) FROM t GROUP BY b");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->HasAggregates());
  ASSERT_EQ(q->items.size(), 3u);
  EXPECT_FALSE(q->items[0].is_agg);
  EXPECT_TRUE(q->items[1].is_agg);
  EXPECT_EQ(q->items[1].name, "n");
  EXPECT_EQ(q->items[2].agg.fn, AggFunc::kSum);
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0], 1);
}

TEST_F(AnalyzerTest, UngroupedColumnRejected) {
  auto q = Bind("SELECT a, count(*) FROM t GROUP BY b");
  EXPECT_FALSE(q.ok());
}

TEST_F(AnalyzerTest, GroupByExpressionRejected) {
  auto q = Bind("SELECT count(*) FROM t GROUP BY a + 1");
  EXPECT_EQ(q.status().code(), StatusCode::kNotSupported);
}

TEST_F(AnalyzerTest, OrderByPositionAndName) {
  auto q = Bind("SELECT a, b FROM t ORDER BY 2 DESC, a");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_EQ(q->order_by[0].select_index, 1);
  EXPECT_FALSE(q->order_by[0].ascending);
  EXPECT_EQ(q->order_by[1].select_index, 0);
  EXPECT_FALSE(Bind("SELECT a FROM t ORDER BY 5").ok());
  EXPECT_FALSE(Bind("SELECT a FROM t ORDER BY b").ok())
      << "ORDER BY column must be in the select list";
}

TEST_F(AnalyzerTest, StarExpansion) {
  auto q = Bind("SELECT * FROM t JOIN u ON t.a = u.a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->items.size(), 5u);
  EXPECT_EQ(q->items[3].name, "a");  // u.a
}

TEST_F(AnalyzerTest, InsertBinding) {
  Analyzer analyzer(cluster_.get());
  auto stmt = ParseStatement("INSERT INTO t (b, a) VALUES (2, 1), (4, 3)");
  ASSERT_TRUE(stmt.ok());
  auto bound = analyzer.BindInsert(*stmt->insert);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->rows.size(), 2u);
  // Column list reorders: a=1, b=2, c=NULL.
  EXPECT_EQ(bound->rows[0][0].int_val(), 1);
  EXPECT_EQ(bound->rows[0][1].int_val(), 2);
  EXPECT_TRUE(bound->rows[0][2].is_null());
}

TEST_F(AnalyzerTest, InsertConstantExpressionsFold) {
  Analyzer analyzer(cluster_.get());
  auto stmt = ParseStatement("INSERT INTO t VALUES (1 + 2, 3 * 4, 'a')");
  ASSERT_TRUE(stmt.ok());
  auto bound = analyzer.BindInsert(*stmt->insert);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->rows[0][0].int_val(), 3);
  EXPECT_EQ(bound->rows[0][1].int_val(), 12);
}

TEST_F(AnalyzerTest, InsertArityMismatchRejected) {
  Analyzer analyzer(cluster_.get());
  auto stmt = ParseStatement("INSERT INTO t (a, b) VALUES (1)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(analyzer.BindInsert(*stmt->insert).ok());
}

TEST_F(AnalyzerTest, UpdateBinding) {
  Analyzer analyzer(cluster_.get());
  auto stmt = ParseStatement("UPDATE t SET b = b + 1 WHERE a = 5");
  ASSERT_TRUE(stmt.ok());
  auto bound = analyzer.BindUpdate(*stmt->update);
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->sets.size(), 1u);
  EXPECT_EQ(bound->sets[0].first, 1);
  ASSERT_NE(bound->where, nullptr);
  ExprPtr key = ExtractEqualityKey(*bound->where, 0);
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->value.int_val(), 5);
}

TEST_F(AnalyzerTest, AggregateInWhereRejected) {
  auto q = Bind("SELECT a FROM t WHERE count(*) > 1");
  EXPECT_FALSE(q.ok());
}

}  // namespace
}  // namespace gphtap
