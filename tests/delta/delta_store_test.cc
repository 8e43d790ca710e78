// DeltaStore / DeltaIndex unit tests: log application + MVCC visibility,
// positional seal boundaries, tid reuse after vacuum, reclamation, and the
// replay-ordering fix — a seal-daemon kFreeGroup arriving before the replica
// has sealed the group it frees (pending_free_) and across a truncate
// (epoch-stamped frees).
#include "delta/delta_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delta/delta_index.h"
#include "storage/change_log.h"
#include "txn/clog.h"
#include "txn/visibility.h"

namespace gphtap {
namespace {

TableDef MakeDef(TableId id = 7) {
  TableDef def;
  def.id = id;
  def.name = "t";
  def.schema = Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  def.storage = StorageKind::kHeap;
  return def;
}

Row MakeRow(int64_t a, const std::string& b) { return Row{Datum(a), Datum(b)}; }

// Collects every visible row (as pairs) from a full-store scan.
std::vector<std::pair<int64_t, std::string>> ScanAll(const DeltaStore& ds,
                                                     const VisibilityContext& ctx,
                                                     uint64_t* sealed = nullptr,
                                                     uint64_t* open = nullptr) {
  std::vector<std::pair<int64_t, std::string>> out;
  Status s = ds.ScanBatches(
      ctx, {0, 1},
      [&](ColumnBatch&& batch) {
        for (int32_t r : batch.sel) {
          out.emplace_back(batch.columns[0].GetDatum(static_cast<size_t>(r)).int_val(),
                           batch.columns[1].GetDatum(static_cast<size_t>(r)).string_val());
        }
        return true;
      },
      sealed, open);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(DeltaStoreTest, VisibilityFollowsCommitLog) {
  DeltaStore ds(MakeDef());
  CommitLog clog;
  clog.Register(10);
  clog.Register(11);
  ds.ApplyInsert(1, 10, MakeRow(1, "committed"));
  ds.ApplyInsert(2, 11, MakeRow(2, "in-progress"));
  clog.SetState(10, TxnState::kCommitted);

  VisibilityContext ctx;
  ctx.clog = &clog;
  auto rows = ScanAll(ds, ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 1);

  // The straggler commits: now both rows are visible.
  clog.SetState(11, TxnState::kCommitted);
  EXPECT_EQ(ScanAll(ds, ctx).size(), 2u);

  // A committed delete hides its row.
  clog.Register(12);
  clog.SetState(12, TxnState::kCommitted);
  ds.ApplyDelete(1, 12);
  rows = ScanAll(ds, ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 2);
  EXPECT_EQ(ds.Stats().deletes, 1u);
}

TEST(DeltaStoreTest, SealBoundariesArePositional) {
  DeltaStore ds(MakeDef());
  CommitLog clog;
  clog.Register(5);
  clog.SetState(5, TxnState::kCommitted);
  const size_t n = DeltaStore::kGroupRows + 500;
  for (size_t i = 0; i < n; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 5, MakeRow(static_cast<int64_t>(i), "r"));
  }
  DeltaSealResult sealed = ds.SealCold(&clog);
  EXPECT_EQ(sealed.groups_sealed, 1u);
  EXPECT_EQ(sealed.rows_sealed, DeltaStore::kGroupRows);
  DeltaStoreStats st = ds.Stats();
  EXPECT_EQ(st.sealed_groups, 1u);
  EXPECT_EQ(st.open_rows, 500u);

  VisibilityContext ctx;
  ctx.clog = &clog;
  uint64_t from_sealed = 0, from_open = 0;
  auto rows = ScanAll(ds, ctx, &from_sealed, &from_open);
  ASSERT_EQ(rows.size(), n);
  EXPECT_EQ(from_sealed, DeltaStore::kGroupRows);
  EXPECT_EQ(from_open, 500u);
  // Scan preserves log-apply order: sealed groups first, then the open run.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i].first, static_cast<int64_t>(i));
  }

  // A delete landing after the seal still finds its (sealed) row.
  clog.Register(6);
  clog.SetState(6, TxnState::kCommitted);
  ds.ApplyDelete(0, 6);
  EXPECT_EQ(ScanAll(ds, ctx).size(), n - 1);
}

TEST(DeltaStoreTest, SealWaitsForUndecidedTransactions) {
  DeltaStore ds(MakeDef());
  CommitLog clog;
  clog.Register(9);
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 9, MakeRow(static_cast<int64_t>(i), "x"));
  }
  // Creating transaction still in progress: the group is not cold yet.
  EXPECT_EQ(ds.SealCold(&clog).groups_sealed, 0u);
  clog.SetState(9, TxnState::kCommitted);
  EXPECT_EQ(ds.SealCold(&clog).groups_sealed, 1u);
}

TEST(DeltaStoreTest, TidReuseAfterVacuumKeepsLatestRow) {
  DeltaStore ds(MakeDef());
  CommitLog clog;
  clog.Register(3);
  clog.Register(4);
  clog.SetState(3, TxnState::kCommitted);
  clog.SetState(4, TxnState::kCommitted);

  ds.ApplyInsert(42, 3, MakeRow(1, "old"));
  ds.ApplyFreeSlot(42);  // heap vacuum reclaimed the slot
  ds.ApplyInsert(42, 4, MakeRow(2, "new"));

  VisibilityContext ctx;
  ctx.clog = &clog;
  auto rows = ScanAll(ds, ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "new");

  // A later delete of the reused tid must hit the new row, not the corpse.
  clog.Register(5);
  clog.SetState(5, TxnState::kCommitted);
  ds.ApplyDelete(42, 5);
  EXPECT_TRUE(ScanAll(ds, ctx).empty());
}

TEST(DeltaStoreTest, ReclaimEmitsReplayableFreeGroup) {
  DeltaStore ds(MakeDef(11));
  CommitLog clog;
  clog.Register(2);
  clog.Register(3);
  clog.SetState(2, TxnState::kCommitted);
  clog.SetState(3, TxnState::kCommitted);
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 2, MakeRow(static_cast<int64_t>(i), "d"));
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 1u);
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    ds.ApplyDelete(static_cast<TupleId>(i), 3);
  }

  ChangeLog log;
  AoReclaimResult res = ds.ReclaimDeadGroups(
      [](LocalXid, LocalXid xmax) { return xmax != kInvalidLocalXid; }, &log);
  EXPECT_EQ(res.groups_freed, 1u);
  EXPECT_EQ(res.rows_freed, DeltaStore::kGroupRows);
  EXPECT_EQ(ds.Stats().freed_groups, 1u);

  ASSERT_EQ(log.size(), 1u);
  const ChangeRecord& rec = log.At(0);
  EXPECT_EQ(rec.kind, ChangeKind::kFreeGroup);
  EXPECT_EQ(rec.table, 11u);
  EXPECT_EQ(rec.tid, 0u);   // group index
  EXPECT_EQ(rec.tid2, 0u);  // truncate epoch at emit time

  VisibilityContext ctx;
  ctx.clog = &clog;
  EXPECT_TRUE(ScanAll(ds, ctx).empty());
}

// The satellite regression: a mirror replaying a captured seal-window log sees
// the kFreeGroup *before* it has sealed the group (seals are local decisions,
// never logged). The free must defer, then land at seal time.
TEST(DeltaStoreTest, FreeGroupBeforeSealDefersUntilGroupForms) {
  // Primary side: insert a cold group, seal, delete everything, reclaim —
  // capturing the change stream the way live execution would emit it.
  TableDef def = MakeDef(21);
  ChangeLog log;
  CommitLog clog;
  clog.Register(2);
  clog.Register(3);
  clog.SetState(2, TxnState::kCommitted);
  clog.SetState(3, TxnState::kCommitted);

  DeltaStore primary(def);
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    Row row = MakeRow(static_cast<int64_t>(i), "p");
    primary.ApplyInsert(static_cast<TupleId>(i), 2, row);
    log.Append(ChangeRecord{ChangeKind::kInsert, def.id, static_cast<TupleId>(i),
                            kInvalidTupleId, 2, std::move(row), kInvalidGxid});
  }
  ASSERT_EQ(primary.SealCold(&clog).groups_sealed, 1u);
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    primary.ApplyDelete(static_cast<TupleId>(i), 3);
    log.Append(ChangeRecord{ChangeKind::kSetXmax, def.id, static_cast<TupleId>(i),
                            kInvalidTupleId, 3, {}, kInvalidGxid});
  }
  ASSERT_EQ(primary
                .ReclaimDeadGroups(
                    [](LocalXid, LocalXid xmax) { return xmax != kInvalidLocalXid; },
                    &log)
                .groups_freed,
            1u);

  // Mirror side: replay the captured log in order into a fresh store that has
  // never sealed. The kFreeGroup arrives while group 0 is still open.
  DeltaStore mirror(def);
  for (size_t pos = 0; pos < log.size(); ++pos) {
    const ChangeRecord& rec = log.At(pos);
    switch (rec.kind) {
      case ChangeKind::kInsert:
        mirror.ApplyInsert(rec.tid, rec.xid, rec.row);
        break;
      case ChangeKind::kSetXmax:
        mirror.ApplyDelete(rec.tid, rec.xid);
        break;
      case ChangeKind::kFreeGroup:
        mirror.ApplyFreeGroup(static_cast<size_t>(rec.tid), rec.tid2);
        break;
      default:
        break;
    }
  }
  // The free deferred: nothing sealed yet, one free pending.
  DeltaStoreStats st = mirror.Stats();
  EXPECT_EQ(st.sealed_groups, 0u);
  EXPECT_EQ(st.pending_frees, 1u);
  EXPECT_EQ(st.freed_groups, 0u);

  // Sealing forms group 0 with identical positional boundaries; the pending
  // free lands immediately and the replica converges with the primary.
  mirror.SealCold(nullptr);
  st = mirror.Stats();
  EXPECT_EQ(st.sealed_groups, 1u);
  EXPECT_EQ(st.pending_frees, 0u);
  EXPECT_EQ(st.freed_groups, 1u);

  VisibilityContext ctx;
  ctx.clog = &clog;
  EXPECT_TRUE(ScanAll(mirror, ctx).empty());
}

TEST(DeltaStoreTest, StaleEpochFreeIgnoredAcrossTruncate) {
  TableDef def = MakeDef(31);
  CommitLog clog;
  clog.Register(2);
  clog.SetState(2, TxnState::kCommitted);

  DeltaStore ds(def);
  // A free stamped with epoch 0 that was emitted before a truncate...
  ds.ApplyTruncate();  // epoch is now 1
  for (size_t i = 0; i < DeltaStore::kGroupRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 2, MakeRow(static_cast<int64_t>(i), "e"));
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 1u);
  // ...must not free the post-truncate group of the same index.
  ds.ApplyFreeGroup(0, /*epoch=*/0);
  EXPECT_EQ(ds.Stats().freed_groups, 0u);

  VisibilityContext ctx;
  ctx.clog = &clog;
  EXPECT_EQ(ScanAll(ds, ctx).size(), DeltaStore::kGroupRows);

  // A current-epoch free does land.
  ds.ApplyFreeGroup(0, /*epoch=*/1);
  EXPECT_EQ(ds.Stats().freed_groups, 1u);
  EXPECT_TRUE(ScanAll(ds, ctx).empty());
}

TEST(DeltaIndexTest, FeedAppliesLogAndWaitForAppliedBlocks) {
  TableDef def = MakeDef(5);
  MetricsRegistry metrics;
  DeltaIndex di(0, [&](TableId id) -> StatusOr<TableDef> {
    if (id == def.id) return def;
    return Status::NotFound("no table");
  }, &metrics);

  ChangeLog log;
  di.Start(&log);
  CommitLog clog;
  clog.Register(2);
  clog.SetState(2, TxnState::kCommitted);

  for (int i = 0; i < 10; ++i) {
    log.Append(ChangeRecord{ChangeKind::kInsert, def.id, static_cast<TupleId>(i),
                            kInvalidTupleId, 2, MakeRow(i, "f"), kInvalidGxid});
  }
  ASSERT_TRUE(di.WaitForApplied(log.size(), 2'000'000).ok());
  EXPECT_GE(di.applied(), 10u);

  DeltaStore* ds = di.store(def.id);
  ASSERT_NE(ds, nullptr);
  VisibilityContext ctx;
  ctx.clog = &clog;
  EXPECT_EQ(ScanAll(*ds, ctx).size(), 10u);

  auto statuses = di.TableStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].name, "t");
  EXPECT_EQ(statuses[0].stats.open_rows, 10u);

  // An unreasonable target times out rather than hanging.
  EXPECT_EQ(di.WaitForApplied(log.size() + 100, 20'000).code(),
            StatusCode::kTimedOut);
  di.Stop();
}

}  // namespace
}  // namespace gphtap
