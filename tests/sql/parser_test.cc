#include "sql/parser.h"

#include <gtest/gtest.h>

#include <limits>

namespace gphtap {
namespace {

using sql_ast::Statement;
using sql_ast::StatementKind;

Statement Parse(const std::string& sql) {
  auto r = ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? *r : Statement{};
}

TEST(ParserTest, SelectBasics) {
  Statement s = Parse("SELECT c1, c2 FROM t WHERE c1 = 1 ORDER BY c2 DESC LIMIT 5;");
  ASSERT_EQ(s.kind, StatementKind::kSelect);
  EXPECT_EQ(s.select->items.size(), 2u);
  EXPECT_EQ(s.select->from.size(), 1u);
  EXPECT_EQ(s.select->from[0].name, "t");
  ASSERT_NE(s.select->where, nullptr);
  EXPECT_EQ(s.select->order_by.size(), 1u);
  EXPECT_FALSE(s.select->order_by[0].ascending);
  EXPECT_EQ(s.select->limit, 5);
}

TEST(ParserTest, SelectStarAndAliases) {
  Statement s = Parse("SELECT *, c1 AS total FROM t alias_name");
  EXPECT_EQ(s.select->items.size(), 2u);
  EXPECT_EQ(s.select->items[1].alias, "total");
  EXPECT_EQ(s.select->from[0].alias, "alias_name");
}

TEST(ParserTest, JoinWithOn) {
  Statement s = Parse(
      "SELECT a.x FROM a JOIN b ON a.k = b.k INNER JOIN c ON b.j = c.j WHERE a.x > 0");
  EXPECT_EQ(s.select->from.size(), 3u);
  EXPECT_EQ(s.select->join_quals.size(), 2u);
}

TEST(ParserTest, CommaJoin) {
  Statement s = Parse("SELECT 1 FROM a, b WHERE a.k = b.k");
  EXPECT_EQ(s.select->from.size(), 2u);
}

TEST(ParserTest, Aggregates) {
  Statement s = Parse("SELECT region, count(*), sum(x + 1) FROM t GROUP BY region");
  EXPECT_EQ(s.select->items.size(), 3u);
  EXPECT_EQ(s.select->items[1].expr->func, "count");
  EXPECT_EQ(s.select->group_by.size(), 1u);
}

TEST(ParserTest, GenerateSeriesInFrom) {
  Statement s = Parse("SELECT i, i FROM generate_series(1, 100) i");
  ASSERT_EQ(s.select->from.size(), 1u);
  EXPECT_TRUE(s.select->from[0].is_function);
  EXPECT_EQ(s.select->from[0].alias, "i");
  EXPECT_EQ(s.select->from[0].func_args.size(), 2u);
}

TEST(ParserTest, SelectWithoutFrom) {
  Statement s = Parse("SELECT 1, generate_series(1,10)");
  EXPECT_TRUE(s.select->from.empty());
  EXPECT_EQ(s.select->items.size(), 2u);
}

TEST(ParserTest, InsertValues) {
  Statement s = Parse("INSERT INTO t (c1, c2) VALUES (1, 'x'), (2, NULL)");
  ASSERT_EQ(s.kind, StatementKind::kInsert);
  EXPECT_EQ(s.insert->columns.size(), 2u);
  EXPECT_EQ(s.insert->rows.size(), 2u);
}

TEST(ParserTest, InsertSelect) {
  Statement s = Parse("INSERT INTO t SELECT i, i FROM generate_series(1, 10) i");
  ASSERT_EQ(s.kind, StatementKind::kInsert);
  ASSERT_NE(s.insert->select, nullptr);
}

TEST(ParserTest, UpdateAndDelete) {
  Statement u = Parse("UPDATE t SET c2 = c2 + 1, c3 = 0 WHERE c1 = 5");
  ASSERT_EQ(u.kind, StatementKind::kUpdate);
  EXPECT_EQ(u.update->sets.size(), 2u);
  ASSERT_NE(u.update->where, nullptr);

  Statement d = Parse("DELETE FROM t WHERE c1 < 0");
  ASSERT_EQ(d.kind, StatementKind::kDelete);
}

TEST(ParserTest, CreateTableWithEverything) {
  Statement s = Parse(
      "CREATE TABLE sales (day int, region text, amount double precision) "
      "WITH (appendonly=true, orientation=column, compresstype=rle) "
      "DISTRIBUTED BY (day, region)");
  ASSERT_EQ(s.kind, StatementKind::kCreateTable);
  EXPECT_EQ(s.create_table->columns.size(), 3u);
  EXPECT_EQ(s.create_table->with_options.size(), 3u);
  EXPECT_EQ(s.create_table->distributed_by.size(), 2u);
}

TEST(ParserTest, CreateTablePartitioned) {
  Statement s = Parse(
      "CREATE TABLE sales (day int, amount int) DISTRIBUTED BY (day) "
      "PARTITION BY RANGE (day) ("
      "PARTITION hot START 100 END 200, "
      "PARTITION cold START 0 END 100 WITH (appendonly=true, orientation=column), "
      "PARTITION archive EXTERNAL '/tmp/archive.csv')");
  ASSERT_EQ(s.kind, StatementKind::kCreateTable);
  ASSERT_EQ(s.create_table->partitions.size(), 3u);
  EXPECT_EQ(s.create_table->partitions[0].name, "hot");
  EXPECT_EQ(s.create_table->partitions[0].start->int_val(), 100);
  EXPECT_EQ(s.create_table->partitions[2].external_path, "/tmp/archive.csv");
}

TEST(ParserTest, TransactionControl) {
  EXPECT_EQ(Parse("BEGIN").kind, StatementKind::kBegin);
  EXPECT_EQ(Parse("START TRANSACTION").kind, StatementKind::kBegin);
  EXPECT_EQ(Parse("COMMIT").kind, StatementKind::kCommit);
  EXPECT_EQ(Parse("ROLLBACK").kind, StatementKind::kRollback);
  EXPECT_EQ(Parse("ABORT").kind, StatementKind::kRollback);
}

TEST(ParserTest, LockTableModes) {
  Statement s = Parse("LOCK t2 IN ACCESS EXCLUSIVE MODE");
  ASSERT_EQ(s.kind, StatementKind::kLockTable);
  EXPECT_EQ(s.lock_table->mode, LockMode::kAccessExclusive);
  Statement s2 = Parse("LOCK TABLE t2 IN SHARE UPDATE EXCLUSIVE MODE");
  EXPECT_EQ(s2.lock_table->mode, LockMode::kShareUpdateExclusive);
  Statement s3 = Parse("LOCK TABLE t2");  // defaults to AccessExclusive
  EXPECT_EQ(s3.lock_table->mode, LockMode::kAccessExclusive);
  EXPECT_FALSE(ParseStatement("LOCK t IN NONSENSE MODE").ok());
}

TEST(ParserTest, ResourceGroupDdl) {
  Statement s = Parse(
      "CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=10, MEMORY_LIMIT=35, "
      "MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=20)");
  ASSERT_EQ(s.kind, StatementKind::kCreateResourceGroup);
  EXPECT_EQ(s.create_resource_group->options.size(), 4u);

  Statement cpuset = Parse("CREATE RESOURCE GROUP g WITH (CONCURRENCY=50, CPU_SET=4-31)");
  bool found = false;
  for (const auto& [k, v] : cpuset.create_resource_group->options) {
    if (k == "cpu_set") {
      EXPECT_EQ(v, "4-31");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, RolesAndSet) {
  Statement c = Parse("CREATE ROLE dev1 RESOURCE GROUP olap_group");
  ASSERT_EQ(c.kind, StatementKind::kCreateRole);
  EXPECT_EQ(c.role_resource_group->group, "olap_group");
  Statement a = Parse("ALTER ROLE dev1 RESOURCE GROUP oltp_group");
  ASSERT_EQ(a.kind, StatementKind::kAlterRole);
  Statement s = Parse("SET ROLE dev1");
  ASSERT_EQ(s.kind, StatementKind::kSet);
  EXPECT_EQ(s.set->value, "dev1");
}

TEST(ParserTest, VacuumAndDrop) {
  EXPECT_EQ(Parse("VACUUM t").kind, StatementKind::kVacuum);
  Statement d = Parse("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(d.drop_table->if_exists);
}

TEST(ParserTest, DistinctAndHaving) {
  Statement s = Parse(
      "SELECT DISTINCT region, sum(x) AS total FROM t GROUP BY region "
      "HAVING total > 10 AND count(*) > 2 ORDER BY region");
  EXPECT_TRUE(s.select->distinct);
  ASSERT_NE(s.select->having, nullptr);
  EXPECT_EQ(s.select->having->op, "and");
  EXPECT_EQ(s.select->order_by.size(), 1u);
  Statement plain = Parse("SELECT a FROM t");
  EXPECT_FALSE(plain.select->distinct);
  EXPECT_EQ(plain.select->having, nullptr);
}

TEST(ParserTest, ExplainParses) {
  Statement s = Parse("EXPLAIN SELECT a FROM t WHERE a = 1");
  EXPECT_EQ(s.kind, StatementKind::kExplain);
  ASSERT_NE(s.select, nullptr);
  Statement update = Parse("EXPLAIN ANALYZE UPDATE t SET a = a + 1 WHERE b = 2");
  EXPECT_EQ(update.kind, StatementKind::kExplain);
  EXPECT_TRUE(update.explain_analyze);
  ASSERT_NE(update.update, nullptr);
  EXPECT_EQ(update.update->sets.size(), 1u);
  Statement del = Parse("EXPLAIN DELETE FROM t");
  EXPECT_EQ(del.kind, StatementKind::kExplain);
  EXPECT_FALSE(del.explain_analyze);
  ASSERT_NE(del.del, nullptr);
}

TEST(ParserTest, ExpressionPrecedence) {
  // 1 + 2 * 3 = 7 must parse as 1 + (2*3).
  Statement s = Parse("SELECT 1 + 2 * 3 = 7");
  const auto& e = *s.select->items[0].expr;
  EXPECT_EQ(e.op, "=");
  EXPECT_EQ(e.args[0]->op, "+");
  EXPECT_EQ(e.args[0]->args[1]->op, "*");
}

// A unary minus folds into an integer literal, so INT64_MIN is writable; a
// literal outside int64 is an error, not a saturated value.
TEST(ParserTest, IntegerLiteralRange) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  Statement s = Parse("SELECT -9223372036854775808, 9223372036854775807, -5 * 2, - 3");
  ASSERT_EQ(s.select->items.size(), 4u);
  EXPECT_EQ(s.select->items[0].expr->literal.int_val(), min);
  EXPECT_EQ(s.select->items[1].expr->literal.int_val(), max);
  const auto& product = *s.select->items[2].expr;
  EXPECT_EQ(product.op, "*");
  EXPECT_EQ(product.args[0]->literal.int_val(), -5);
  EXPECT_EQ(s.select->items[3].expr->literal.int_val(), -3);
  for (const char* sql : {"SELECT 9223372036854775808", "SELECT -9223372036854775809",
                          "SELECT 1 FROM t LIMIT 99999999999999999999",
                          "INSERT INTO t VALUES (18446744073709551616)"}) {
    EXPECT_FALSE(ParseStatement(sql).ok()) << sql;
  }
  Statement part = Parse(
      "CREATE TABLE p (k int) DISTRIBUTED BY (k) PARTITION BY RANGE (k) "
      "(PARTITION lo START -9223372036854775808 END 0)");
  ASSERT_EQ(part.create_table->partitions.size(), 1u);
  EXPECT_EQ(part.create_table->partitions[0].start->int_val(), min);
}

// A $N position outside int is rejected, never wrapped onto a smaller one
// ($4294967297 used to read as $1).
TEST(ParserTest, ParameterPositionRange) {
  Statement s = Parse("SELECT $1 + $2147483647");
  EXPECT_EQ(s.select->items[0].expr->args[0]->param, 1);
  EXPECT_EQ(s.select->items[0].expr->args[1]->param, 2147483647);
  for (const char* sql : {"SELECT $0", "SELECT $2147483648", "SELECT $4294967297 + 0",
                          "PREPARE p AS SELECT $99999999999999999999"}) {
    auto r = ParseStatement(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().message().find("parameter positions"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ParserTest, AndOrPrecedence) {
  Statement s = Parse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3");
  // OR binds loosest: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ(s.select->where->op, "or");
  EXPECT_EQ(s.select->where->args[1]->op, "and");
}

TEST(ParserTest, StringEscapes) {
  Statement s = Parse("SELECT 'it''s'");
  EXPECT_EQ(s.select->items[0].expr->literal.string_val(), "it's");
}

TEST(ParserTest, Comments) {
  Statement s = Parse("SELECT 1 -- trailing comment\n FROM t");
  EXPECT_EQ(s.kind, StatementKind::kSelect);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("SELECT").ok());
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO").ok());
  EXPECT_FALSE(ParseStatement("UPDATE t SET").ok());
  EXPECT_FALSE(ParseStatement("SELECT 'unterminated").ok());
  EXPECT_FALSE(ParseStatement("SELECT 1; SELECT 2").ok());  // one statement only
  EXPECT_FALSE(ParseStatement("SELECT 1 @ 2").ok());
}

}  // namespace
}  // namespace gphtap
