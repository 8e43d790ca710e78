// End-to-end vectorized execution: identical results with the batch engine on
// and off, EXPLAIN/EXPLAIN ANALYZE surfacing, vec.* metrics, batched motion
// transport, and row-engine fallback for non-vectorizable plan shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/session.h"
#include "vec/vec_kernels.h"

namespace gphtap {
namespace {

std::string RowText(const Row& row) {
  std::string s;
  for (const Datum& d : row) {
    s += d.is_null() ? "NULL" : d.ToString();
    s += "|";
  }
  return s;
}

std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) out.push_back(RowText(row));
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Cluster> MakeCluster(bool vectorized) {
  ClusterOptions options;
  options.num_segments = 3;
  options.vectorized_execution_enabled = vectorized;
  return std::make_unique<Cluster>(options);
}

// Loads the same dataset into a cluster: an AO-column fact table spanning
// multiple row groups (with deletes), plus a small heap dimension table.
void Load(Cluster* cluster) {
  auto s = cluster->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE fact (k int, grp int, v int, w double) "
                         "WITH (storage=ao_column) DISTRIBUTED BY (k)")
                  .ok());
  ASSERT_TRUE(
      s->Execute("CREATE TABLE dim (grp int, name text) DISTRIBUTED BY (grp)").ok());
  ASSERT_TRUE(s->Execute("INSERT INTO fact SELECT i, i % 10, i % 97, i * 0.5 "
                         "FROM generate_series(0, 4999) i")
                  .ok());
  ASSERT_TRUE(s->Execute("INSERT INTO dim SELECT i, 'g' FROM generate_series(0, 9) i")
                  .ok());
  // Punch visibility holes so batch selection vectors are non-trivial.
  ASSERT_TRUE(s->Execute("DELETE FROM fact WHERE v = 13").ok());
}

void ExpectSameResults(const std::string& sql) {
  auto vec_cluster = MakeCluster(true);
  auto row_cluster = MakeCluster(false);
  Load(vec_cluster.get());
  Load(row_cluster.get());
  auto vec = vec_cluster->Connect()->Execute(sql);
  auto row = row_cluster->Connect()->Execute(sql);
  ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status().ToString();
  ASSERT_TRUE(row.ok()) << sql << ": " << row.status().ToString();
  EXPECT_EQ(SortedRows(*vec), SortedRows(*row)) << sql;
  // The vectorized cluster must actually have used the batch engine.
  EXPECT_GT(vec_cluster->StatsSnapshot().counter("vec.batches"), 0u) << sql;
  EXPECT_EQ(row_cluster->StatsSnapshot().counter("vec.batches"), 0u) << sql;
}

TEST(VecExecutorTest, ScanFilterMatchesRowEngine) {
  ExpectSameResults("SELECT k, v FROM fact WHERE v > 50 AND k % 3 = 0");
}

TEST(VecExecutorTest, GlobalAggregateMatchesRowEngine) {
  ExpectSameResults(
      "SELECT count(*) AS n, sum(v) AS s, min(w) AS lo, max(w) AS hi, avg(v) AS m "
      "FROM fact WHERE v < 90");
}

TEST(VecExecutorTest, GroupedAggregateMatchesRowEngine) {
  ExpectSameResults(
      "SELECT grp, count(*) AS n, sum(v) AS s FROM fact GROUP BY grp "
      "ORDER BY grp");
}

TEST(VecExecutorTest, ProjectionExpressionsMatchRowEngine) {
  ExpectSameResults("SELECT k + v AS a, w * 2.0 AS b FROM fact WHERE grp = 4");
}

TEST(VecExecutorTest, LimitStopsBatchProduction) {
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto r = cluster->Connect()->Execute("SELECT k FROM fact LIMIT 17");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 17u);
}

TEST(VecExecutorTest, JoinFallsBackWithVectorizedLeaves) {
  // dim is a heap table, so the join itself stays on the row engine; the
  // AO-column scan under it is still marked, exercising the batch->row
  // boundary inside a join pipeline.
  ExpectSameResults(
      "SELECT f.grp, count(*) AS n, sum(f.v) AS s FROM fact f "
      "JOIN dim d ON f.grp = d.grp GROUP BY f.grp ORDER BY f.grp");
}

TEST(VecExecutorTest, ExplainAnalyzeShowsVectorizedHashJoin) {
  // CH-benCH shape: AO-column fact joined to an AO-column dimension with a
  // grouped aggregate on top — the whole pipeline runs on the batch engine,
  // and EXPLAIN ANALYZE must say so on the HashJoin line itself.
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto s = cluster->Connect();
  ASSERT_TRUE(s->Execute("CREATE TABLE item (grp int, price int) "
                         "WITH (storage=ao_column) DISTRIBUTED BY (grp)")
                  .ok());
  ASSERT_TRUE(s->Execute("INSERT INTO item SELECT i, i * 3 "
                         "FROM generate_series(0, 9) i")
                  .ok());
  auto r = s->Execute(
      "EXPLAIN ANALYZE SELECT f.grp, count(*) AS n, sum(i.price) AS rev "
      "FROM fact f JOIN item i ON f.grp = i.grp GROUP BY f.grp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows) text += RowText(row) + "\n";
  bool join_vectorized_with_batches = false;
  size_t pos = 0;
  while ((pos = text.find("HashJoin", pos)) != std::string::npos) {
    std::string line = text.substr(pos, text.find('\n', pos) - pos);
    if (line.find("(vectorized)") != std::string::npos &&
        line.find("batches=") != std::string::npos) {
      join_vectorized_with_batches = true;
    }
    pos += 1;
  }
  EXPECT_TRUE(join_vectorized_with_batches)
      << "no vectorized HashJoin with batch counts in:\n"
      << text;
}

TEST(VecExecutorTest, DistinctOverVectorizedScan) {
  ExpectSameResults("SELECT DISTINCT grp FROM fact ORDER BY grp");
}

TEST(VecExecutorTest, ExplainMarksVectorizedNodes) {
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto s = cluster->Connect();
  auto plan = s->Execute("EXPLAIN SELECT grp, sum(v) AS s FROM fact GROUP BY grp");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& row : plan->rows) text += RowText(row) + "\n";
  EXPECT_NE(text.find("(vectorized)"), std::string::npos) << text;
  EXPECT_NE(text.find("SeqScan"), std::string::npos) << text;

  // Heap tables never vectorize.
  auto heap_plan = s->Execute("EXPLAIN SELECT grp FROM dim");
  ASSERT_TRUE(heap_plan.ok());
  std::string heap_text;
  for (const Row& row : heap_plan->rows) heap_text += RowText(row) + "\n";
  EXPECT_EQ(heap_text.find("(vectorized)"), std::string::npos) << heap_text;
}

TEST(VecExecutorTest, ExplainRespectsClusterSwitch) {
  auto cluster = MakeCluster(false);
  Load(cluster.get());
  auto plan = cluster->Connect()->Execute("EXPLAIN SELECT sum(v) AS s FROM fact");
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (const Row& row : plan->rows) text += RowText(row) + "\n";
  EXPECT_EQ(text.find("(vectorized)"), std::string::npos) << text;
}

TEST(VecExecutorTest, ExplainAnalyzeReportsBatchCounts) {
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto r = cluster->Connect()->Execute(
      "EXPLAIN ANALYZE SELECT grp, sum(v) AS s FROM fact WHERE v > 10 GROUP BY grp");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows) text += RowText(row) + "\n";
  EXPECT_NE(text.find("(vectorized)"), std::string::npos) << text;
  EXPECT_NE(text.find("batches="), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows="), std::string::npos) << text;
}

TEST(VecExecutorTest, VecMetricsAndBatchedMotionTraffic) {
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto s = cluster->Connect();
  ASSERT_TRUE(s->Execute("SELECT grp, count(*) AS n FROM fact GROUP BY grp").ok());
  MetricsSnapshot snap = cluster->StatsSnapshot();
  EXPECT_GT(snap.counter("vec.batches"), 0u);
  EXPECT_GT(snap.counter("vec.rows"), 0u);
  // Partial-agg results ride the gather motion as ColumnBatches.
  EXPECT_GT(snap.counter("net.tuple_batches"), 0u);
}

TEST(VecExecutorTest, RowEngineClusterShipsNoBatches) {
  auto cluster = MakeCluster(false);
  Load(cluster.get());
  auto s = cluster->Connect();
  ASSERT_TRUE(s->Execute("SELECT grp, count(*) AS n FROM fact GROUP BY grp").ok());
  MetricsSnapshot snap = cluster->StatsSnapshot();
  EXPECT_EQ(snap.counter("vec.batches"), 0u);
  EXPECT_EQ(snap.counter("net.tuple_batches"), 0u);
}

TEST(VecExecutorTest, DeleteVisibilityRespectedAfterBatchScan) {
  auto cluster = MakeCluster(true);
  Load(cluster.get());
  auto s = cluster->Connect();
  auto before = s->Execute("SELECT count(*) AS n FROM fact WHERE grp = 7");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(s->Execute("DELETE FROM fact WHERE grp = 7").ok());
  auto after = s->Execute("SELECT count(*) AS n FROM fact WHERE grp = 7");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(before->rows[0][0].int_val(), 0);
  EXPECT_EQ(after->rows[0][0].int_val(), 0);
}

// The int64 x int64 kernel follows PostgreSQL's int8div / int8mod instead of
// trapping on INT64_MIN / -1 and INT64_MIN % -1.
TEST(VecExecutorTest, IntMinDivisionByMinusOne) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  ColumnBatch batch;
  batch.Reset(1);
  batch.AppendRow(Row{Datum(min)});
  batch.AppendRow(Row{Datum(int64_t{7})});
  auto by_minus_one = [](BinOp op) {
    return Expr::Binary(op, Expr::Column(0), Expr::Const(Datum(int64_t{-1})));
  };
  ColumnVector out;
  ASSERT_TRUE(VecEval(*by_minus_one(BinOp::kMod), batch, batch.sel, &out).ok());
  ASSERT_EQ(out.tag, ColumnVector::Tag::kInt64);
  EXPECT_EQ(out.ints[0], 0);
  EXPECT_EQ(out.ints[1], 0);
  Status div = VecEval(*by_minus_one(BinOp::kDiv), batch, batch.sel, &out);
  EXPECT_EQ(div.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(div.message(), "bigint out of range");
  batch.sel = {1};
  ASSERT_TRUE(VecEval(*by_minus_one(BinOp::kDiv), batch, batch.sel, &out).ok());
  EXPECT_EQ(out.ints[1], -7);
}

// The int kernel and the boxed kernel both raise on + - * overflow, as the
// row engine does, and only for the rows selected.
TEST(VecExecutorTest, IntOverflowRaises) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  ColumnBatch batch;
  batch.Reset(1);
  batch.AppendRow(Row{Datum(max)});
  batch.AppendRow(Row{Datum(min)});
  batch.AppendRow(Row{Datum(int64_t{7})});
  batch.AppendRow(Row{Datum::Null()});
  struct Case {
    BinOp op;
    int64_t k;
    int64_t seven_gives;
  };
  for (const Case& c : {Case{BinOp::kAdd, 1, 8}, Case{BinOp::kSub, 1, 6},
                        Case{BinOp::kMul, 2, 14}, Case{BinOp::kMul, -1, -7}}) {
    auto e = Expr::Binary(c.op, Expr::Column(0), Expr::Const(Datum(c.k)));
    ColumnVector out;
    batch.sel = {0, 1, 2, 3};
    Status s = VecEval(*e, batch, batch.sel, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << BinOpName(c.op) << " " << c.k;
    EXPECT_EQ(s.message(), "bigint out of range");
    batch.sel = {2, 3};
    ASSERT_TRUE(VecEval(*e, batch, batch.sel, &out).ok()) << BinOpName(c.op) << " " << c.k;
    EXPECT_EQ(out.ints[2], c.seven_gives);
    EXPECT_TRUE(out.IsNull(3));
  }
  // A boxed operand (a string column beside ints) takes the Datum kernel.
  ColumnBatch mixed;
  mixed.Reset(1);
  mixed.AppendRow(Row{Datum(max)});
  mixed.AppendRow(Row{Datum(std::string("x"))});
  mixed.sel = {0};
  ColumnVector out;
  auto plus_one = Expr::Binary(BinOp::kAdd, Expr::Column(0), Expr::Const(Datum(int64_t{1})));
  Status boxed = VecEval(*plus_one, mixed, mixed.sel, &out);
  EXPECT_EQ(boxed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(boxed.message(), "bigint out of range");

  // sum() and avg() over ints: the unboxed loop with and without a NULL mask,
  // an overflow that lands in a later batch, and boxed values. A running sum
  // that stays in range (max - 1 + 1) is not an error.
  ColumnBatch dense;
  dense.Reset(1);
  for (int64_t v : {max, int64_t{1}, int64_t{-1}}) dense.AppendRow(Row{Datum(v)});
  ColumnBatch sparse = dense;
  sparse.AppendRow(Row{Datum::Null()});
  mixed.AppendRow(Row{Datum(int64_t{1})});
  for (AggFunc fn : {AggFunc::kSum, AggFunc::kAvg}) {
    const std::string name = fn == AggFunc::kSum ? "sum" : "avg";
    AggState across;
    ASSERT_TRUE(VecAggUpdate(fn, dense.columns[0], {0}, &across).ok()) << name;
    struct Overflow {
      const ColumnVector& col;
      std::vector<int32_t> pos;
      AggState state;
    };
    for (Overflow o : {Overflow{dense.columns[0], {0, 1}, AggState{}},
                       Overflow{sparse.columns[0], {0, 3, 1}, AggState{}},
                       Overflow{dense.columns[0], {1}, across},
                       Overflow{mixed.columns[0], {0, 2}, AggState{}}}) {
      Status s = VecAggUpdate(fn, o.col, o.pos, &o.state);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << name;
      EXPECT_EQ(s.message(), "bigint out of range") << name;
    }
    AggState fits;
    ASSERT_TRUE(VecAggUpdate(fn, sparse.columns[0], {0, 2, 3, 1}, &fits).ok()) << name;
    EXPECT_EQ(fits.isum, max) << name;
    EXPECT_EQ(fits.count, 3) << name;
  }
}

}  // namespace
}  // namespace gphtap
