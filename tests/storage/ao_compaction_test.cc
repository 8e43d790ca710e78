// Row-group reclamation and dead-heavy compaction bookkeeping on the
// append-optimized table, run once per orientation: GroupInfos occupancy (the
// gp_segment_status bloat source and the VACUUM compaction trigger),
// whole-group reclamation under the "dead to every snapshot" predicate, tid
// stability across freed slots, kFreeGroup change-record emission, and a
// replica rebuilt from the change log.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "storage/column_store.h"
#include "storage/replay.h"
#include "txn/local_txn_manager.h"

namespace gphtap {
namespace {

constexpr size_t kGroup = ColumnGroupStore::kGroupRows;

class AoCompactionTest : public ::testing::TestWithParam<StorageKind> {
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

  TableDef Def() {
    TableDef def;
    def.id = 1;
    def.name = "ao";
    def.schema = Schema({{"k", TypeId::kInt64}});
    def.storage = GetParam();
    return def;
  }

  // Appends rows k = [from, to) under `xid`.
  void Fill(AoColumnTable* t, LocalXid xid, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(t->Insert(xid, Row{Datum(static_cast<int64_t>(i))}).ok());
    }
  }

  std::set<std::pair<TupleId, int64_t>> Rows(Table* t) {
    std::set<std::pair<TupleId, int64_t>> out;
    EXPECT_TRUE(t->Scan(Ctx(), [&](TupleId tid, const Row& r) {
                   out.emplace(tid, r[0].int_val());
                   return true;
                 }).ok());
    return out;
  }

  std::set<int64_t> Keys(Table* t) {
    std::set<int64_t> out;
    for (const auto& [tid, k] : Rows(t)) out.insert(k);
    return out;
  }

  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_{0};
  LocalTxnManager mgr_;
  Gxid next_gxid_ = 100;
};

INSTANTIATE_TEST_SUITE_P(BothOrientations, AoCompactionTest,
                         ::testing::Values(StorageKind::kAoRow, StorageKind::kAoColumn),
                         [](const auto& info) { return StorageKindName(info.param); });

TEST_P(AoCompactionTest, GroupInfosTrackLiveAndDeadPerGroup) {
  AoColumnTable t(Def());
  Fill(&t, BeginCommitted(), 0, kGroup + 10);
  // Kill 100 rows of group 0 with a committed deleter, 5 with an aborted one.
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < 100; ++tid) ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  LocalXid a = BeginAborted();
  for (TupleId tid = 100; tid < 105; ++tid) ASSERT_TRUE(t.MarkDeleted(tid, a).ok());

  std::vector<AoGroupInfo> infos = t.GroupInfos(Dead());
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_FALSE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, kGroup);
  EXPECT_EQ(infos[0].dead, 100u);  // the aborted deleter does not count
  EXPECT_EQ(infos[0].live, kGroup - 100);
  EXPECT_FALSE(infos[1].sealed);
  EXPECT_EQ(infos[1].rows, 10u);
  EXPECT_EQ(infos[1].live, 10u);
}

TEST_P(AoCompactionTest, ReclaimFreesOnlyFullyDeadSealedGroups) {
  AoColumnTable t(Def());
  Fill(&t, BeginCommitted(), 0, 2 * kGroup + 1);
  // Group 0 fully dead; group 1 all but one row dead; group 2 open.
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < 2 * kGroup - 1; ++tid) {
    ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  }
  std::vector<AoGroupInfo> infos = t.GroupInfos(Dead());
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].dead, kGroup);
  EXPECT_EQ(infos[0].live, 0u);
  EXPECT_EQ(infos[1].dead, kGroup - 1);
  EXPECT_EQ(infos[1].live, 1u);

  AoReclaimResult r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 1u);
  EXPECT_EQ(r.rows_freed, kGroup);
  EXPECT_EQ(t.StoredVersionCount(), kGroup + 1);

  // The freed group keeps its slot: surviving tids are unchanged.
  const std::set<std::pair<TupleId, int64_t>> want = {
      {2 * kGroup - 1, static_cast<int64_t>(2 * kGroup - 1)},
      {2 * kGroup, static_cast<int64_t>(2 * kGroup)}};
  EXPECT_EQ(Rows(&t), want);

  infos = t.GroupInfos(Dead());
  EXPECT_TRUE(infos[0].freed);
  EXPECT_EQ(infos[0].rows, 0u);
  EXPECT_FALSE(infos[1].freed);

  // A second pass finds nothing new (group 1 still has its survivor).
  r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 0u);
}

TEST_P(AoCompactionTest, ReclaimEmitsFreeGroupChangeRecord) {
  ChangeLog log;
  AoColumnTable t(Def());
  t.SetChangeLog(&log);
  LocalXid w = BeginCommitted();
  Fill(&t, w, 0, kGroup);
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < kGroup; ++tid) ASSERT_TRUE(t.MarkDeleted(tid, d).ok());
  const size_t before = log.size();
  AoReclaimResult r = t.ReclaimDeadGroups(Dead());
  EXPECT_EQ(r.groups_freed, 1u);
  ASSERT_EQ(log.size() - before, 1u);
  EXPECT_EQ(log.At(before).kind, ChangeKind::kFreeGroup);
  EXPECT_EQ(log.At(before).tid, 0u);  // group index rides in the tid field

  // Replay-side application frees without re-emitting.
  AoColumnTable replica(Def());
  Fill(&replica, w, 0, kGroup);
  ASSERT_TRUE(replica.ApplyFreeGroup(0).ok());
  EXPECT_EQ(replica.StoredVersionCount(), 0u);
}

// A replica fed the primary's change log (inserts, xmax marks from committed
// and aborted deleters, a kFreeGroup, and inserts after it) reproduces every
// tid and every group's occupancy.
TEST_P(AoCompactionTest, ReplicaFromChangeLogReproducesTidsAndGroups) {
  ChangeLog log;
  AoColumnTable primary(Def());
  primary.SetChangeLog(&log);
  Fill(&primary, BeginCommitted(), 0, 2 * kGroup + 50);
  LocalXid d = BeginCommitted();
  for (TupleId tid = 0; tid < kGroup; ++tid) ASSERT_TRUE(primary.MarkDeleted(tid, d).ok());
  for (TupleId tid = kGroup; tid < kGroup + 40; ++tid) {
    ASSERT_TRUE(primary.MarkDeleted(tid, d).ok());
  }
  LocalXid a = BeginAborted();
  ASSERT_TRUE(primary.MarkDeleted(2 * kGroup + 3, a).ok());
  ASSERT_EQ(primary.ReclaimDeadGroups(Dead()).groups_freed, 1u);
  Fill(&primary, BeginCommitted(), 2 * kGroup + 50, 3 * kGroup + 7);

  AoColumnTable replica(Def());
  for (size_t pos = 0; pos < log.size(); ++pos) {
    ASSERT_TRUE(ApplyDataChange(&replica, log.At(pos)).ok()) << "record " << pos;
  }

  EXPECT_EQ(Rows(&replica), Rows(&primary));
  std::vector<AoGroupInfo> want = primary.GroupInfos(Dead());
  std::vector<AoGroupInfo> got = replica.GroupInfos(Dead());
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 4u);
  for (size_t gi = 0; gi < want.size(); ++gi) {
    EXPECT_EQ(got[gi].index, want[gi].index);
    EXPECT_EQ(got[gi].rows, want[gi].rows) << "group " << gi;
    EXPECT_EQ(got[gi].live, want[gi].live) << "group " << gi;
    EXPECT_EQ(got[gi].dead, want[gi].dead) << "group " << gi;
    EXPECT_EQ(got[gi].sealed, want[gi].sealed) << "group " << gi;
    EXPECT_EQ(got[gi].freed, want[gi].freed) << "group " << gi;
  }
  EXPECT_TRUE(got[0].freed);
  EXPECT_EQ(got[1].dead, 40u);
  EXPECT_EQ(replica.StoredVersionCount(), primary.StoredVersionCount());
}

// Two sessions' SELECT count(*) over one AO table: both scans account
// BytesScanned while holding only the shared latch, so the concurrent total is
// exactly 2 x kScans x the bytes of one scan run alone.
TEST_P(AoCompactionTest, ConcurrentRowScansAccountEveryByte) {
  AoColumnTable t(Def());
  const size_t rows = 2 * kGroup + 100;  // two sealed groups and an open one
  Fill(&t, BeginCommitted(), 0, rows);
  const VisibilityContext ctx = Ctx();
  auto scan_once = [&] {
    size_t seen = 0;
    EXPECT_TRUE(t.Scan(ctx, [&](TupleId, const Row&) {
                   ++seen;
                   return true;
                 }).ok());
    EXPECT_EQ(seen, rows);
  };
  scan_once();
  const uint64_t one_scan = t.BytesScanned();
  ASSERT_GT(one_scan, 0u);

  constexpr int kScans = 20;
  auto scans = [&] {
    for (int i = 0; i < kScans; ++i) scan_once();
  };
  std::thread a(scans);
  std::thread b(scans);
  a.join();
  b.join();
  EXPECT_EQ(t.BytesScanned() - one_scan, 2 * kScans * one_scan);
}

}  // namespace
}  // namespace gphtap
