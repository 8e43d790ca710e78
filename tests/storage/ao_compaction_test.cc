// Row-group reclamation and dead-heavy compaction bookkeeping on the
// append-optimized storage kinds: GroupInfos occupancy (the gp_segment_status
// bloat source and the VACUUM compaction trigger), whole-group reclamation
// under the "dead to every snapshot" predicate, tid stability across freed
// slots, and kFreeGroup change-record emission.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "storage/ao_table.h"
#include "storage/column_store.h"
#include "txn/local_txn_manager.h"

namespace gphtap {
namespace {

class AoCompactionTest : public ::testing::Test {
 protected:
  AoCompactionTest() : mgr_(&clog_, &dlog_, &wal_) {}

  LocalXid BeginCommitted() {
    Gxid g = next_gxid_++;
    LocalXid x = *mgr_.AssignXid(g);
    mgr_.Commit(g);
    return x;
  }

  LocalXid BeginAborted() {
    Gxid g = next_gxid_++;
    LocalXid x = *mgr_.AssignXid(g);
    mgr_.Abort(g);
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

  // The reporting predicate: aborted creator, or committed deleter.
  AoRowDeadFn Dead() {
    return [this](LocalXid xmin, LocalXid xmax) {
      if (clog_.GetState(xmin) == TxnState::kAborted) return true;
      return xmax != kInvalidLocalXid && clog_.IsCommitted(xmax);
    };
  }

  TableDef RowDef() {
    TableDef def;
    def.id = 1;
    def.name = "ao";
    def.schema = Schema({{"k", TypeId::kInt64}});
    def.storage = StorageKind::kAoRow;
    return def;
  }

  TableDef ColDef() {
    TableDef def = RowDef();
    def.name = "aoc";
    def.storage = StorageKind::kAoColumn;
    return def;
  }

  std::set<int64_t> Keys(Table* t) {
    std::set<int64_t> out;
    EXPECT_TRUE(t->Scan(Ctx(), [&](TupleId, const Row& r) {
                   out.insert(r[0].int_val());
                   return true;
                 }).ok());
    return out;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  Gxid next_gxid_ = 100;
};

TEST_F(AoCompactionTest, GroupInfosTrackLiveAndDeadPerGroup) {
  AoRowTable t(RowDef());
  LocalXid w = BeginCommitted();
  for (size_t i = 0; i < AoRowTable::kGroupSize + 10; ++i) {
    ASSERT_TRUE(t.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  // Kill 100 rows of group 0 with a committed deleter, 5 with an aborted one.
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < 100; ++tid) ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  LocalXid a = BeginAborted();
  for (TupleId tid = 100; tid < 105; ++tid) ASSERT_TRUE(t.MarkDeleted(tid, a).ok());

  std::vector<AoGroupInfo> infos = t.GroupInfos(Dead());
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_FALSE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, AoRowTable::kGroupSize);
  EXPECT_EQ(infos[0].dead, 100u);  // the aborted deleter does not count
  EXPECT_EQ(infos[0].live, AoRowTable::kGroupSize - 100);
  EXPECT_FALSE(infos[1].sealed);
  EXPECT_EQ(infos[1].rows, 10u);
  EXPECT_EQ(infos[1].live, 10u);
}

TEST_F(AoCompactionTest, ReclaimFreesOnlyFullyDeadSealedGroups) {
  AoRowTable t(RowDef());
  LocalXid w = BeginCommitted();
  for (size_t i = 0; i < 2 * AoRowTable::kGroupSize + 1; ++i) {
    ASSERT_TRUE(t.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  // Group 0 fully dead; group 1 all but one row dead; group 2 open.
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < 2 * AoRowTable::kGroupSize - 1; ++tid) {
    ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  }

  AoReclaimResult r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 1u);
  EXPECT_EQ(r.rows_freed, AoRowTable::kGroupSize);

  // The freed group keeps its slot: surviving tids are unchanged.
  std::set<int64_t> keys = Keys(&t);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_TRUE(keys.count(static_cast<int64_t>(2 * AoRowTable::kGroupSize - 1)));
  EXPECT_TRUE(keys.count(static_cast<int64_t>(2 * AoRowTable::kGroupSize)));

  std::vector<AoGroupInfo> infos = t.GroupInfos(Dead());
  EXPECT_TRUE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, 0u);
  EXPECT_FALSE(infos[1].freed);

  // A second pass finds nothing new (group 1 still has its survivor).
  r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 0u);
}

TEST_F(AoCompactionTest, ReclaimEmitsFreeGroupChangeRecord) {
  ChangeLog log;
  AoRowTable t(RowDef());
  t.SetChangeLog(&log);
  LocalXid w = BeginCommitted();
  for (size_t i = 0; i < AoRowTable::kGroupSize; ++i) {
    ASSERT_TRUE(t.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < AoRowTable::kGroupSize; ++tid) {
    ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  }
  const size_t before = log.size();
  AoReclaimResult r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 1u);
  ASSERT_EQ(log.size() - before, 1u);
  EXPECT_EQ(log.At(before).kind, ChangeKind::kFreeGroup);
  EXPECT_EQ(log.At(before).tid, 0u);  // group index rides in the tid field

  // Replay-side application frees without re-emitting.
  AoRowTable replica(RowDef());
  for (size_t i = 0; i < AoRowTable::kGroupSize; ++i) {
    ASSERT_TRUE(replica.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  ASSERT_TRUE(replica.ApplyFreeGroup(0).ok());
  EXPECT_EQ(replica.StoredVersionCount(), 0u);
}

TEST_F(AoCompactionTest, ColumnStoreReclaimAndOccupancy) {
  AoColumnTable t(ColDef());
  LocalXid w = BeginCommitted();
  for (size_t i = 0; i < AoColumnTable::kRowGroupSize + 7; ++i) {
    ASSERT_TRUE(t.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < AoColumnTable::kRowGroupSize; ++tid) {
    ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  }

  std::vector<AoGroupInfo> infos = t.GroupInfos(Dead());
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].dead, AoColumnTable::kRowGroupSize);
  EXPECT_EQ(infos[0].live, 0u);

  AoReclaimResult r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 1u);
  EXPECT_EQ(r.rows_freed, AoColumnTable::kRowGroupSize);

  std::set<int64_t> keys = Keys(&t);
  ASSERT_EQ(keys.size(), 7u);
  EXPECT_TRUE(keys.count(static_cast<int64_t>(AoColumnTable::kRowGroupSize)));

  infos = t.GroupInfos(Dead());
  EXPECT_TRUE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, 0u);
}

// Two sessions' SELECT count(*) over one AO-row table: both scans account
// BytesScanned while holding only the shared latch.
TEST_F(AoCompactionTest, ConcurrentRowScansAccountEveryByte) {
  AoRowTable t(RowDef());
  LocalXid w = BeginCommitted();
  const size_t rows = 2 * AoRowTable::kGroupSize;
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t.Insert(w, Row{Datum(static_cast<int64_t>(i))}).ok());
  }
  constexpr int kScans = 20;
  const VisibilityContext ctx = Ctx();
  auto scan = [&] {
    for (int i = 0; i < kScans; ++i) {
      size_t seen = 0;
      EXPECT_TRUE(t.Scan(ctx, [&](TupleId, const Row&) {
                     ++seen;
                     return true;
                   }).ok());
      EXPECT_EQ(seen, rows);
    }
  };
  std::thread a(scan);
  std::thread b(scan);
  a.join();
  b.join();
  EXPECT_EQ(t.BytesScanned(), 2 * kScans * rows * 16);
}

}  // namespace
}  // namespace gphtap
