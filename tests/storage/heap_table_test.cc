#include "storage/heap_table.h"

#include <gtest/gtest.h>

#include "lock/lock_owner.h"
#include "txn/distributed_txn_manager.h"
#include "txn/local_txn_manager.h"
#include "txn/wal.h"

namespace gphtap {
namespace {

class HeapTableTest : public ::testing::Test {
 protected:
  HeapTableTest() : mgr_(&clog_, &dlog_, &wal_) {
    TableDef def;
    def.id = 1;
    def.name = "t";
    def.schema = Schema({{"c1", TypeId::kInt64}, {"c2", TypeId::kInt64}});
    def.distribution = DistributionPolicy::Hash({0});
    def.indexed_cols = {0};
    table_ = std::make_unique<HeapTable>(def, &clog_);
  }

  // Starts a new txn; returns its local xid.
  LocalXid Begin() {
    Gxid g = dtm_.Begin(owner_);
    gxids_.push_back(g);
    return *mgr_.AssignXid(g);
  }
  void Commit(LocalXid xid) {
    for (Gxid g : gxids_) {
      if (mgr_.LookupXid(g) == std::optional<LocalXid>(xid)) {
        mgr_.Commit(g);
        dtm_.MarkCommitted(g);
        return;
      }
    }
    FAIL() << "unknown xid";
  }
  void Abort(LocalXid xid) {
    for (Gxid g : gxids_) {
      if (mgr_.LookupXid(g) == std::optional<LocalXid>(xid)) {
        mgr_.Abort(g);
        dtm_.MarkAborted(g);
        return;
      }
    }
  }

  VisibilityContext Ctx(const DistributedSnapshot* snap, LocalXid my = 0) {
    VisibilityContext c;
    c.clog = &clog_;
    c.dlog = &dlog_;
    c.dsnap = snap;
    c.my_xid = my;
    return c;
  }

  std::vector<Row> VisibleRows(LocalXid my = 0) {
    DistributedSnapshot snap = dtm_.TakeSnapshot();
    std::vector<Row> rows;
    table_->Scan(Ctx(&snap, my), [&](TupleId, const Row& r) {
      rows.push_back(r);
      return true;
    });
    return rows;
  }

  Row R(int64_t a, int64_t b) { return Row{Datum(a), Datum(b)}; }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  DistributedTxnManager dtm_;
  std::shared_ptr<LockOwner> owner_ = std::make_shared<LockOwner>(0);
  std::vector<Gxid> gxids_;
  std::unique_ptr<HeapTable> table_;
};

TEST_F(HeapTableTest, InsertCommitScan) {
  LocalXid x = Begin();
  ASSERT_TRUE(table_->Insert(x, R(1, 10)).ok());
  ASSERT_TRUE(table_->Insert(x, R(2, 20)).ok());
  Commit(x);
  auto rows = VisibleRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_val(), 1);
  EXPECT_EQ(rows[1][1].int_val(), 20);
}

TEST_F(HeapTableTest, UncommittedInvisibleToOthers) {
  LocalXid x = Begin();
  ASSERT_TRUE(table_->Insert(x, R(1, 10)).ok());
  EXPECT_TRUE(VisibleRows().empty());
  EXPECT_EQ(VisibleRows(x).size(), 1u);  // visible to self
  Commit(x);
  EXPECT_EQ(VisibleRows().size(), 1u);
}

TEST_F(HeapTableTest, AbortedInsertInvisible) {
  LocalXid x = Begin();
  ASSERT_TRUE(table_->Insert(x, R(1, 10)).ok());
  Abort(x);
  EXPECT_TRUE(VisibleRows().empty());
}

TEST_F(HeapTableTest, SchemaRejected) {
  LocalXid x = Begin();
  EXPECT_FALSE(table_->Insert(x, Row{Datum(int64_t{1})}).ok());
  EXPECT_FALSE(table_->Insert(x, Row{Datum(std::string("a")), Datum(int64_t{1})}).ok());
}

TEST_F(HeapTableTest, UpdateChainVisibility) {
  LocalXid x1 = Begin();
  TupleId t0 = *table_->Insert(x1, R(1, 10));
  Commit(x1);

  // Update: mark old deleted, insert new version, link.
  LocalXid x2 = Begin();
  auto mark = table_->TryMarkDeleted(t0, x2);
  ASSERT_EQ(mark.outcome, MarkDeleteOutcome::kOk);
  TupleId t1 = *table_->Insert(x2, R(1, 11));
  table_->LinkNewVersion(t0, t1);

  // Before commit: others see the old value, the updater sees the new one.
  {
    auto rows = VisibleRows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1].int_val(), 10);
    auto mine = VisibleRows(x2);
    ASSERT_EQ(mine.size(), 1u);
    EXPECT_EQ(mine[0][1].int_val(), 11);
  }
  Commit(x2);
  auto rows = VisibleRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int_val(), 11);
}

TEST_F(HeapTableTest, MarkDeletedOutcomes) {
  LocalXid x1 = Begin();
  TupleId t0 = *table_->Insert(x1, R(1, 10));
  Commit(x1);

  // In-progress deleter blocks a second writer.
  LocalXid x2 = Begin();
  ASSERT_EQ(table_->TryMarkDeleted(t0, x2).outcome, MarkDeleteOutcome::kOk);
  LocalXid x3 = Begin();
  auto r = table_->TryMarkDeleted(t0, x3);
  EXPECT_EQ(r.outcome, MarkDeleteOutcome::kWait);
  EXPECT_EQ(r.wait_xid, x2);
  // Self re-delete reports kSelfUpdated.
  EXPECT_EQ(table_->TryMarkDeleted(t0, x2).outcome, MarkDeleteOutcome::kSelfUpdated);

  // After the deleter commits with a linked successor, followers get kFollow.
  TupleId t1 = *table_->Insert(x2, R(1, 11));
  table_->LinkNewVersion(t0, t1);
  Commit(x2);
  auto r2 = table_->TryMarkDeleted(t0, x3);
  EXPECT_EQ(r2.outcome, MarkDeleteOutcome::kFollow);
  EXPECT_EQ(r2.next, t1);

  // Aborted deleter's xmax is overwritable.
  Abort(x3);
  LocalXid x4 = Begin();
  auto r3 = table_->TryMarkDeleted(t1, x4);
  EXPECT_EQ(r3.outcome, MarkDeleteOutcome::kOk);
  Abort(x4);
  LocalXid x5 = Begin();
  EXPECT_EQ(table_->TryMarkDeleted(t1, x5).outcome, MarkDeleteOutcome::kOk);
}

TEST_F(HeapTableTest, IndexLookupFindsVersions) {
  LocalXid x = Begin();
  TupleId t0 = *table_->Insert(x, R(7, 70));
  *table_->Insert(x, R(8, 80));
  Commit(x);
  EXPECT_TRUE(table_->HasIndexOn(0));
  EXPECT_FALSE(table_->HasIndexOn(1));
  auto tids = table_->IndexLookup(0, Datum(int64_t{7}));
  ASSERT_EQ(tids.size(), 1u);
  EXPECT_EQ(tids[0], t0);
  EXPECT_TRUE(table_->IndexLookup(0, Datum(int64_t{99})).empty());
  EXPECT_TRUE(table_->IndexLookup(1, Datum(int64_t{70})).empty());  // not indexed
}

TEST_F(HeapTableTest, IndexCoversNewVersionsAfterUpdate) {
  LocalXid x1 = Begin();
  TupleId t0 = *table_->Insert(x1, R(7, 70));
  Commit(x1);
  LocalXid x2 = Begin();
  table_->TryMarkDeleted(t0, x2);
  TupleId t1 = *table_->Insert(x2, R(7, 71));
  table_->LinkNewVersion(t0, t1);
  Commit(x2);
  auto tids = table_->IndexLookup(0, Datum(int64_t{7}));
  EXPECT_EQ(tids.size(), 2u);  // both versions; visibility filters later
}

TEST_F(HeapTableTest, VacuumReclaimsDeadVersionsAndReusesSlots) {
  LocalXid x1 = Begin();
  TupleId t0 = *table_->Insert(x1, R(1, 10));
  Commit(x1);
  LocalXid x2 = Begin();
  table_->TryMarkDeleted(t0, x2);
  TupleId t1 = *table_->Insert(x2, R(1, 11));
  table_->LinkNewVersion(t0, t1);
  Commit(x2);

  EXPECT_EQ(table_->StoredVersionCount(), 2u);
  LocalXid horizon = Begin();  // everything before this xid is globally visible
  uint64_t freed = table_->Vacuum(horizon);
  EXPECT_EQ(freed, 1u);
  EXPECT_EQ(table_->StoredVersionCount(), 1u);
  EXPECT_EQ(table_->FreeSlots(), 1u);
  // Dead version no longer findable via index.
  EXPECT_EQ(table_->IndexLookup(0, Datum(int64_t{1})).size(), 1u);
  // The freed slot is reused by the next insert.
  TupleId t2 = *table_->Insert(horizon, R(2, 20));
  EXPECT_EQ(t2, t0);
  EXPECT_EQ(table_->FreeSlots(), 0u);
}

TEST_F(HeapTableTest, VacuumKeepsVersionsVisibleToOldSnapshots) {
  LocalXid x1 = Begin();
  TupleId t0 = *table_->Insert(x1, R(1, 10));
  Commit(x1);
  LocalXid x2 = Begin();  // old transaction still running
  table_->TryMarkDeleted(t0, x2);
  // x2 still in progress: its delete is not final, nothing to reclaim.
  EXPECT_EQ(table_->Vacuum(x2), 0u);
}

TEST_F(HeapTableTest, GetReturnsHeaderAndRow) {
  LocalXid x = Begin();
  TupleId t = *table_->Insert(x, R(5, 50));
  auto v = table_->Get(t);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->header.xmin, x);
  EXPECT_EQ(v->header.xmax, kInvalidLocalXid);
  EXPECT_EQ(v->row[1].int_val(), 50);
  EXPECT_FALSE(table_->Get(9999).ok());
}

TEST_F(HeapTableTest, BufferPoolChargesPages) {
  BufferPool pool({.capacity_pages = 2, .miss_cost_us = 0});
  TableDef def;
  def.id = 9;
  def.name = "b";
  def.schema = Schema({{"c1", TypeId::kInt64}, {"c2", TypeId::kInt64}});
  HeapTable t(def, &clog_, &pool);
  LocalXid x = Begin();
  // Fill 4 pages (64 slots each).
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(t.Insert(x, R(i, i)).ok());
  Commit(x);
  auto before = pool.stats();
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  t.Scan(Ctx(&snap), [](TupleId, const Row&) { return true; });
  auto after = pool.stats();
  // Scanning 4 pages through a 2-page pool must miss repeatedly.
  EXPECT_GE(after.misses, before.misses + 2);
  EXPECT_LE(pool.resident_pages(), 2u);
}

TEST_F(HeapTableTest, ScanEarlyStop) {
  LocalXid x = Begin();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(table_->Insert(x, R(i, i)).ok());
  Commit(x);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  int seen = 0;
  table_->Scan(Ctx(&snap), [&](TupleId, const Row&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(HeapTableTest, ProjectedScanDefaultImpl) {
  LocalXid x = Begin();
  ASSERT_TRUE(table_->Insert(x, R(1, 10)).ok());
  Commit(x);
  DistributedSnapshot snap = dtm_.TakeSnapshot();
  table_->ScanColumns(Ctx(&snap), {1}, [&](TupleId, const Row& r) {
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].int_val(), 10);
    return true;
  });
}

}  // namespace
}  // namespace gphtap
