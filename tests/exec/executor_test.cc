// Unit tests for the push-based executor: operators driven through ExecuteNode
// and full plans through ExecutePlan on a real cluster.
#include "exec/executor.h"

#include <gtest/gtest.h>

#include "api/gphtap.h"

namespace gphtap {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    ClusterOptions o;
    o.num_segments = 2;
    cluster_ = std::make_unique<Cluster>(o);
    session_ = cluster_->Connect();
    EXPECT_TRUE(
        session_->Execute("CREATE TABLE t (k int, v int) DISTRIBUTED BY (k)").ok());
    EXPECT_TRUE(
        session_->Execute("INSERT INTO t SELECT i, i * 10 FROM generate_series(1, 20) i")
            .ok());
  }

  // Runs a plan whose leaves live on all segments, gathering to this thread.
  StatusOr<std::vector<Row>> Run(PlanPtr root) {
    QueryPlan plan;
    plan.root = std::move(root);
    for (int i = 0; i < cluster_->num_segments(); ++i) plan.gang.push_back(i);
    Gxid gxid;
    auto owner = cluster_->dtm().BeginTxn(&gxid);
    DistributedSnapshot snap = cluster_->dtm().TakeSnapshot();
    std::vector<Row> rows;
    Status s = ExecutePlan(cluster_.get(), plan, gxid, owner, snap, nullptr, nullptr,
                           [&](Row&& row) -> Status {
                             rows.push_back(std::move(row));
                             return Status::OK();
                           });
    cluster_->dtm().MarkAborted(gxid);
    cluster_->coordinator_locks().ReleaseAll(*owner);
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      cluster_->segment(i)->locks().ReleaseAll(*owner);
    }
    if (!s.ok()) return s;
    return rows;
  }

  TableId TableIdOf(const char* name) { return cluster_->LookupTable(name)->id; }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Session> session_;
};

TEST_F(ExecutorTest, GatheredSeqScan) {
  auto rows = Run(MakeMotion(MotionKind::kGather, MakeSeqScan(TableIdOf("t"), 2), 1000));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);
}

TEST_F(ExecutorTest, ScanFilterPushdown) {
  ExprPtr filter =
      Expr::Binary(BinOp::kGt, Expr::Column(0), Expr::Const(Datum(int64_t{15})));
  auto rows =
      Run(MakeMotion(MotionKind::kGather, MakeSeqScan(TableIdOf("t"), 2, filter), 1001));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  auto project = std::make_unique<PlanNode>();
  project->kind = PlanKind::kProject;
  project->exprs = {Expr::Binary(BinOp::kAdd, Expr::Column(0), Expr::Column(1))};
  project->output_arity = 1;
  project->children.push_back(MakeSeqScan(TableIdOf("t"), 2));
  auto rows = Run(MakeMotion(MotionKind::kGather, std::move(project), 1002));
  ASSERT_TRUE(rows.ok());
  int64_t sum = 0;
  for (const Row& r : *rows) sum += r[0].int_val();
  // sum(k + 10k) = 11 * sum(1..20) = 11 * 210.
  EXPECT_EQ(sum, 11 * 210);
}

TEST_F(ExecutorTest, RedistributeThenGatherPreservesRows) {
  PlanPtr redist = MakeMotion(MotionKind::kRedistribute,
                              MakeSeqScan(TableIdOf("t"), 2), 1003, {1});
  auto rows = Run(MakeMotion(MotionKind::kGather, std::move(redist), 1004));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);
}

TEST_F(ExecutorTest, BroadcastDuplicatesPerReceiver) {
  PlanPtr bcast =
      MakeMotion(MotionKind::kBroadcast, MakeSeqScan(TableIdOf("t"), 2), 1005);
  auto rows = Run(MakeMotion(MotionKind::kGather, std::move(bcast), 1006));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);  // every row reaches both segments
}

TEST_F(ExecutorTest, PartialFinalAggPipeline) {
  auto partial = std::make_unique<PlanNode>();
  partial->kind = PlanKind::kHashAgg;
  partial->agg_phase = AggPhase::kPartial;
  partial->aggs = {AggSpec{AggFunc::kCountStar, nullptr},
                   AggSpec{AggFunc::kSum, Expr::Column(1)},
                   AggSpec{AggFunc::kAvg, Expr::Column(1)}};
  partial->output_arity = 4;  // count, sum, avg(sum,count)
  partial->children.push_back(MakeSeqScan(TableIdOf("t"), 2));

  auto final_agg = std::make_unique<PlanNode>();
  final_agg->kind = PlanKind::kHashAgg;
  final_agg->agg_phase = AggPhase::kFinal;
  final_agg->aggs = partial->aggs;
  final_agg->output_arity = 3;
  final_agg->children.push_back(
      MakeMotion(MotionKind::kGather, std::move(partial), 1007));

  auto rows = Run(std::move(final_agg));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_val(), 20);          // count
  EXPECT_EQ((*rows)[0][1].int_val(), 2100);        // sum(v)
  EXPECT_DOUBLE_EQ((*rows)[0][2].double_val(), 105.0);  // avg(v)
}

TEST_F(ExecutorTest, EmptyInputGlobalAggregateProducesOneRow) {
  EXPECT_TRUE(session_->Execute("CREATE TABLE empty_t (k int, v int)").ok());
  auto partial = std::make_unique<PlanNode>();
  partial->kind = PlanKind::kHashAgg;
  partial->agg_phase = AggPhase::kPartial;
  partial->aggs = {AggSpec{AggFunc::kCountStar, nullptr}};
  partial->output_arity = 1;
  partial->children.push_back(MakeSeqScan(TableIdOf("empty_t"), 2));
  auto final_agg = std::make_unique<PlanNode>();
  final_agg->kind = PlanKind::kHashAgg;
  final_agg->agg_phase = AggPhase::kFinal;
  final_agg->aggs = partial->aggs;
  final_agg->output_arity = 1;
  final_agg->children.push_back(
      MakeMotion(MotionKind::kGather, std::move(partial), 1008));
  auto rows = Run(std::move(final_agg));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_val(), 0);
}

TEST_F(ExecutorTest, SortAndLimitStopProducersEarly) {
  auto sort = std::make_unique<PlanNode>();
  sort->kind = PlanKind::kSort;
  sort->sort_keys = {SortKey{0, false}};
  sort->output_arity = 2;
  sort->children.push_back(
      MakeMotion(MotionKind::kGather, MakeSeqScan(TableIdOf("t"), 2), 1009));
  auto limit = std::make_unique<PlanNode>();
  limit->kind = PlanKind::kLimit;
  limit->limit = 3;
  limit->output_arity = 2;
  limit->children.push_back(std::move(sort));
  auto rows = Run(std::move(limit));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0].int_val(), 20);
  EXPECT_EQ((*rows)[2][0].int_val(), 18);
}

TEST_F(ExecutorTest, GenerateSeriesNode) {
  auto rows = Run(MakeMotion(MotionKind::kGather,
                             MakeFunctionScan({Expr::Const(Datum(int64_t{5})),
                                               Expr::Const(Datum(int64_t{9}))}),
                             1010));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Each gang member produces the series: 5 values x 2 segments.
  EXPECT_EQ(rows->size(), 10u);

  // Two series zip: the longer sets the row count, the shorter pads with NULL.
  rows = Run(MakeMotion(MotionKind::kGather,
                        MakeFunctionScan({Expr::Const(Datum(int64_t{1})),
                                          Expr::Const(Datum(int64_t{3})),
                                          Expr::Const(Datum(int64_t{7})),
                                          Expr::Const(Datum(int64_t{8}))}),
                        1011));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 6u);
  int nulls = 0;
  for (const Row& row : *rows) {
    ASSERT_EQ(row.size(), 2u);
    ASSERT_TRUE(row[0].is_int());
    if (row[1].is_null()) {
      ++nulls;
      EXPECT_EQ(row[0].int_val(), 3);
    } else {
      EXPECT_EQ(row[1].int_val(), row[0].int_val() + 6);
    }
  }
  EXPECT_EQ(nulls, 2);

  // Zero series: one row with no columns per gang member.
  rows = Run(MakeMotion(MotionKind::kGather, MakeFunctionScan({}), 1012));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_TRUE((*rows)[0].empty());
}

TEST_F(ExecutorTest, ModifyTableRunsOnEveryMemberWithoutAMotion) {
  // UPDATE and DELETE are plans too, but their root is the ModifyTable: each
  // gang member stamps its own rows and answers with a count, so no tuple
  // crosses the network.
  const uint64_t tuples = cluster_->net().count(MsgKind::kTupleData);
  const uint64_t dispatches = cluster_->net().count(MsgKind::kDispatch);
  const uint64_t results = cluster_->net().count(MsgKind::kResult);
  auto update = session_->Execute("UPDATE t SET v = v + 1 WHERE v > 100");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->affected, 10);
  auto del = session_->Execute("DELETE FROM t WHERE v < 50");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->affected, 4);
  EXPECT_EQ(cluster_->net().count(MsgKind::kTupleData), tuples);
  EXPECT_EQ(cluster_->net().count(MsgKind::kDispatch), dispatches + 4);
  EXPECT_EQ(cluster_->net().count(MsgKind::kResult), results + 4);
}

// A key with a committed chain of updates, an aborted update and another
// session's uncommitted update holds eight versions; the IndexScan returns
// exactly the one its snapshot sees.
TEST_F(ExecutorTest, IndexScanReturnsOnlyTheVisibleVersion) {
  ASSERT_TRUE(session_->Execute("CREATE TABLE h (k int, v int) DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(session_->Execute("CREATE INDEX ON h (k)").ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO h VALUES (7, 0), (8, 0)").ok());
  ASSERT_TRUE(session_->Execute("BEGIN").ok());
  ASSERT_TRUE(session_->Execute("UPDATE h SET v = 99 WHERE k = 7").ok());
  ASSERT_TRUE(session_->Execute("ROLLBACK").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session_->Execute("UPDATE h SET v = v + 1 WHERE k = 7").ok());
  }
  auto other = cluster_->Connect();
  ASSERT_TRUE(other->Execute("BEGIN").ok());
  ASSERT_TRUE(other->Execute("UPDATE h SET v = 100 WHERE k = 7").ok());

  auto rows = Run(MakeMotion(
      MotionKind::kGather,
      MakeIndexScan(TableIdOf("h"), 2, 0, Expr::Const(Datum(int64_t{7}))), 1000));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_val(), 7);
  EXPECT_EQ((*rows)[0][1].int_val(), 5);
  ASSERT_TRUE(other->Execute("ROLLBACK").ok());
}

TEST_F(ExecutorTest, CancellationAbortsQuery) {
  Gxid gxid;
  auto owner = cluster_->dtm().BeginTxn(&gxid);
  DistributedSnapshot snap = cluster_->dtm().TakeSnapshot();
  QueryPlan plan;
  plan.root = MakeMotion(MotionKind::kGather, MakeSeqScan(TableIdOf("t"), 2), 1011);
  for (int i = 0; i < cluster_->num_segments(); ++i) plan.gang.push_back(i);
  owner->Cancel(Status::Aborted("user cancel"));
  Status s = ExecutePlan(cluster_.get(), plan, gxid, owner, snap, nullptr, nullptr,
                         [&](Row&&) -> Status { return Status::OK(); });
  EXPECT_TRUE(s.IsAbortLike()) << s.ToString();
  cluster_->dtm().MarkAborted(gxid);
}

TEST_F(ExecutorTest, MemoryAccountEnforcedBySort) {
  // A sort through a 0-byte memory account must be cancelled, not crash.
  VmemTracker tiny(0);
  auto group = std::make_shared<GroupMemory>("g", 0, 0, 1);
  QueryMemoryAccount account(&tiny, group);
  Gxid gxid;
  auto owner = cluster_->dtm().BeginTxn(&gxid);
  DistributedSnapshot snap = cluster_->dtm().TakeSnapshot();
  QueryPlan plan;
  auto sort = std::make_unique<PlanNode>();
  sort->kind = PlanKind::kSort;
  sort->sort_keys = {SortKey{0, true}};
  sort->output_arity = 2;
  sort->children.push_back(
      MakeMotion(MotionKind::kGather, MakeSeqScan(TableIdOf("t"), 2), 1012));
  plan.root = std::move(sort);
  for (int i = 0; i < cluster_->num_segments(); ++i) plan.gang.push_back(i);
  Status s = ExecutePlan(cluster_.get(), plan, gxid, owner, snap, nullptr, &account,
                         [&](Row&&) -> Status { return Status::OK(); });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  cluster_->dtm().MarkAborted(gxid);
}

}  // namespace
}  // namespace gphtap
