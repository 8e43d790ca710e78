// Regression tests for the ScanColumns / ScanBatches / MarkDeleted visibility
// interaction on AO-column tables: partially-filled open groups, fully-deleted
// sealed groups, aborted deleters, and row-vs-batch scan equivalence (both
// paths share AoColumnTable::GroupVisibility).
#include <gtest/gtest.h>

#include <set>

#include "storage/column_store.h"
#include "txn/local_txn_manager.h"

namespace gphtap {
namespace {

class AoVisibilityTest : public ::testing::Test {
 protected:
  AoVisibilityTest() : mgr_(&clog_, &dlog_, &wal_) {}

  LocalXid BeginCommitted() {
    Gxid g = next_gxid_++;
    LocalXid x = *mgr_.AssignXid(g);
    mgr_.Commit(g);
    return x;
  }

  VisibilityContext Ctx() {
    VisibilityContext c;
    c.clog = &clog_;
    c.dlog = &dlog_;
    c.dsnap = nullptr;  // utility mode: local rules only
    c.lsnap = nullptr;
    return c;
  }

  TableDef Def() {
    TableDef def;
    def.id = 1;
    def.name = "t";
    def.schema = Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
    def.storage = StorageKind::kAoColumn;
    return def;
  }

  // Collects (tid, k) over a row scan of both columns.
  std::vector<std::pair<TupleId, int64_t>> RowScan(AoColumnTable* t) {
    std::vector<std::pair<TupleId, int64_t>> out;
    EXPECT_TRUE(t->ScanColumns(Ctx(), {0, 1}, [&](TupleId tid, const Row& r) {
                   out.emplace_back(tid, r[0].int_val());
                   return true;
                 }).ok());
    return out;
  }

  // Collects k over the live rows of a batch scan.
  std::vector<int64_t> BatchScan(AoColumnTable* t, int* batches = nullptr) {
    std::vector<int64_t> out;
    EXPECT_TRUE(t->ScanBatches(Ctx(), {0, 1}, [&](ColumnBatch&& b) {
                   if (batches != nullptr) ++(*batches);
                   for (int32_t r : b.sel) {
                     out.push_back(b.columns[0].GetDatum(static_cast<size_t>(r)).int_val());
                   }
                   return true;
                 }).ok());
    return out;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  Gxid next_gxid_ = 1;
};

constexpr size_t kGroup = AoColumnTable::kRowGroupSize;

TEST_F(AoVisibilityTest, BatchScanMatchesRowScan) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  // 2.5 row groups: two sealed groups plus a partially-filled open tail.
  const int64_t n = static_cast<int64_t>(kGroup * 2 + kGroup / 2);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i * 3)}).ok());
  }
  // Delete a scattering: group 0 head, a mid-group run, and open-tail rows.
  LocalXid deleter = BeginCommitted();
  std::set<int64_t> deleted = {0, 1, 700, 701, 702, static_cast<int64_t>(kGroup) + 5,
                               static_cast<int64_t>(2 * kGroup) + 1};
  for (int64_t d : deleted) {
    ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(d), deleter).ok());
  }

  auto rows = RowScan(&t);
  int batches = 0;
  auto batch_keys = BatchScan(&t, &batches);
  ASSERT_EQ(rows.size(), batch_keys.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].second, batch_keys[i]) << "row " << i;
    EXPECT_FALSE(deleted.count(rows[i].second)) << "deleted row leaked";
  }
  EXPECT_EQ(rows.size(), static_cast<size_t>(n) - deleted.size());
  EXPECT_EQ(batches, 3);  // two sealed groups + the open tail
}

TEST_F(AoVisibilityTest, PartiallyFilledOpenGroupEdges) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  // Open group only — no sealed groups at all.
  for (int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  ASSERT_TRUE(t.MarkDeleted(0, deleter).ok());
  ASSERT_TRUE(t.MarkDeleted(6, deleter).ok());  // last row of the tail
  auto keys = BatchScan(&t);
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(RowScan(&t).size(), 5u);
  // Deleting past the end is NotFound, not silent corruption.
  EXPECT_FALSE(t.MarkDeleted(7, deleter).ok());
}

TEST_F(AoVisibilityTest, FullyDeletedSealedGroupNeverEmitsABatch) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  const int64_t n = static_cast<int64_t>(kGroup * 2);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  LocalXid deleter = BeginCommitted();
  for (size_t r = 0; r < kGroup; ++r) {
    ASSERT_TRUE(t.MarkDeleted(static_cast<TupleId>(r), deleter).ok());
  }
  int batches = 0;
  auto keys = BatchScan(&t, &batches);
  EXPECT_EQ(batches, 1) << "fully-deleted group must be skipped, not emitted empty";
  EXPECT_EQ(keys.size(), kGroup);
  EXPECT_EQ(keys.front(), static_cast<int64_t>(kGroup));
  EXPECT_EQ(RowScan(&t).size(), kGroup);
}

TEST_F(AoVisibilityTest, AbortedDeleterLeavesTuplesVisible) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i)}).ok());
  }
  Gxid g = next_gxid_++;
  LocalXid aborted = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.MarkDeleted(3, aborted).ok());
  mgr_.Abort(g);
  EXPECT_EQ(BatchScan(&t).size(), 10u);
  EXPECT_EQ(RowScan(&t).size(), 10u);
}

TEST_F(AoVisibilityTest, AbortedInsertInvisibleOnBothPaths) {
  AoColumnTable t(Def());
  LocalXid committed = BeginCommitted();
  ASSERT_TRUE(t.Insert(committed, Row{Datum(int64_t{1}), Datum(int64_t{1})}).ok());
  Gxid g = next_gxid_++;
  LocalXid aborted = *mgr_.AssignXid(g);
  ASSERT_TRUE(t.Insert(aborted, Row{Datum(int64_t{2}), Datum(int64_t{2})}).ok());
  mgr_.Abort(g);
  auto keys = BatchScan(&t);
  EXPECT_EQ(keys, (std::vector<int64_t>{1}));
  EXPECT_EQ(RowScan(&t).size(), 1u);
}

TEST_F(AoVisibilityTest, ProjectedBatchScanReadsOnlyRequestedColumns) {
  AoColumnTable t(Def());
  LocalXid x = BeginCommitted();
  const int64_t n = static_cast<int64_t>(kGroup + 3);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(x, Row{Datum(i), Datum(i * 2)}).ok());
  }
  int64_t sum = 0;
  ASSERT_TRUE(t.ScanBatches(Ctx(), {1}, [&](ColumnBatch&& b) {
                 EXPECT_EQ(b.NumColumns(), 1u);
                 for (int32_t r : b.sel) sum += b.columns[0].GetDatum(static_cast<size_t>(r)).int_val();
                 return true;
               }).ok());
  EXPECT_EQ(sum, n * (n - 1));  // sum of 2*i for i in [0, n)
}

}  // namespace
}  // namespace gphtap
