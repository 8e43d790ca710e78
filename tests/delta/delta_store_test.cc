// DeltaStore / DeltaIndex unit tests: log application + MVCC visibility,
// positional seal boundaries, tid reuse after vacuum, reclamation, the
// replay-ordering fix — a seal-daemon kFreeGroup arriving before the replica
// has sealed the group it frees (pending_free_) and across a truncate
// (epoch-stamped frees) — and scans whose consumer parks between groups while
// the feed and the seal daemon keep going.
#include "delta/delta_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
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

// Runs `mutate` on another thread while the calling scan consumer waits; true
// when it finished within 2 s. A mutation that blocks on a latch the scan
// holds leaves its future in `pending`, to finish once the scan lets go.
bool LandWhileParked(const std::function<void()>& mutate,
                     std::vector<std::future<void>>* pending) {
  pending->push_back(std::async(std::launch::async, mutate));
  return pending->back().wait_for(std::chrono::seconds(2)) == std::future_status::ready;
}

// A consumer parked on its first batch (a motion send blocked on a full
// receiver) must not stall the feed: the store's latch is not held while the
// consumer runs.
TEST(DeltaStoreTest, ParkedConsumerDoesNotStallTheFeed) {
  DeltaStore ds(MakeDef());
  CommitLog clog;
  clog.Register(2);
  clog.SetState(2, TxnState::kCommitted);
  clog.Register(3);
  for (size_t i = 0; i < 2 * DeltaStore::kGroupRows; ++i) {
    ds.ApplyInsert(static_cast<TupleId>(i), 2, MakeRow(static_cast<int64_t>(i), "p"));
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 2u);

  VisibilityContext ctx;
  ctx.clog = &clog;
  std::vector<std::future<void>> pending;
  size_t batches = 0;
  Status s = ds.ScanBatches(
      ctx, {0, 1},
      [&](ColumnBatch&&) {
        if (batches++ > 0) return true;
        const bool fed = LandWhileParked(
            [&] {
              ds.ApplyInsert(static_cast<TupleId>(2 * DeltaStore::kGroupRows), 3,
                             MakeRow(-1, "new"));
              ds.ApplyDelete(0, 3);
            },
            &pending);
        EXPECT_TRUE(fed) << "ApplyInsert/ApplyDelete blocked behind a parked scan";
        return fed;
      },
      nullptr, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (auto& f : pending) f.wait();
  EXPECT_EQ(batches, 2u);
  EXPECT_EQ(ds.Stats().deletes, 1u);
}

// Between two groups of one scan, the seal daemon seals a group, reclaims a
// dead one and replays a stale-epoch free; the feed drops a vacuumed row for
// tid reuse, appends and deletes under a transaction the snapshot cannot see,
// and an in-progress creator commits. Later, a truncate starts a new epoch.
// The scan's rows equal a per-row TupleVisible oracle over what each group
// held when the scan read it.
TEST(DeltaStoreTest, MidScanSealFreeAndTruncateKeepTheSnapshotCut) {
  constexpr size_t kG = DeltaStore::kGroupRows;
  constexpr LocalXid kC = 10;  // committed creator
  constexpr LocalXid kD = 11;  // committed deleter
  constexpr LocalXid kA = 12;  // aborted
  constexpr LocalXid kP = 13;  // in progress at the snapshot, commits mid-scan
  constexpr LocalXid kF = 20;  // begins after the snapshot
  CommitLog clog;
  for (LocalXid x : {kC, kD, kA, kP}) clog.Register(x);
  clog.SetState(kC, TxnState::kCommitted);
  clog.SetState(kD, TxnState::kCommitted);
  clog.SetState(kA, TxnState::kAborted);
  clog.Register(kF);
  LocalSnapshot snap;
  snap.xmin = kC;
  snap.xmax = kP + 1;
  snap.in_progress = {kP};
  VisibilityContext ctx;
  ctx.clog = &clog;
  ctx.lsnap = &snap;

  struct Applied {
    int64_t key;
    LocalXid xmin;
    LocalXid xmax;
  };
  DeltaStore ds(MakeDef());
  ds.ApplyTruncate();  // truncate epoch 1: an epoch-0 free is stale
  // Group 0: mixed; group 1: all deleted; group 2: some rows of kP, and row
  // 2101 dead to every snapshot; group 3: a partial tail.
  std::vector<Applied> applied;
  for (size_t pos = 0; pos < 3 * kG + 100; ++pos) {
    Applied row{static_cast<int64_t>(pos), kC, kInvalidLocalXid};
    if (pos < kG) {
      if (pos % 7 == 0) row.xmin = kA;
      if (pos % 5 == 0) row.xmax = kD;
    } else if (pos < 2 * kG) {
      row.xmax = kD;
    } else if (pos < 3 * kG) {
      if (pos % 3 == 0) row.xmin = kP;
      if (pos == 2101) row.xmax = kD;
    }
    ds.ApplyInsert(static_cast<TupleId>(pos), row.xmin, MakeRow(row.key, "v"));
    if (row.xmax != kInvalidLocalXid) ds.ApplyDelete(static_cast<TupleId>(pos), row.xmax);
    applied.push_back(row);
  }
  ASSERT_EQ(ds.SealCold(&clog).groups_sealed, 2u);  // group 2 waits for kP

  // The new epoch: 3 * kG + 128 rows of kF, so its group 3 exists too.
  std::vector<Applied> refill;
  for (size_t pos = 0; pos < 3 * kG + 128; ++pos) {
    refill.push_back(Applied{static_cast<int64_t>(1'000'000 + pos), kF, kInvalidLocalXid});
  }

  const std::vector<std::function<void()>> mutations = {
      [&] {  // after group 0
        clog.SetState(kP, TxnState::kCommitted);
        EXPECT_EQ(ds.SealCold(&clog).groups_sealed, 1u);
        AoReclaimResult freed = ds.ReclaimDeadGroups(
            [&](LocalXid, LocalXid xmax) {
              return xmax != kInvalidLocalXid && clog.IsCommitted(xmax);
            },
            nullptr);
        EXPECT_EQ(freed.groups_freed, 1u);
        ds.ApplyFreeGroup(2, /*epoch=*/0);  // stale: must not free group 2
        ds.ApplyDelete(2050, kF);
        ds.ApplyInsert(2101, kF, MakeRow(-2101, "reused"));  // drops the old row
        for (size_t i = 0; i < 2 * kG; ++i) {
          ds.ApplyInsert(static_cast<TupleId>(100'000 + i), kF, MakeRow(-1, "late"));
        }
      },
      [&] {  // after group 2
        ds.ApplyTruncate();
        for (size_t pos = 0; pos < refill.size(); ++pos) {
          ds.ApplyInsert(static_cast<TupleId>(pos), kF, MakeRow(refill[pos].key, "n"));
        }
      },
  };

  std::vector<int64_t> got;
  std::vector<std::future<void>> pending;
  size_t step = 0;
  uint64_t sealed = 0;
  uint64_t open = 0;
  Status s = ds.ScanBatches(
      ctx, {0},
      [&](ColumnBatch&& batch) {
        for (int32_t r : batch.sel) {
          got.push_back(batch.columns[0].GetDatum(static_cast<size_t>(r)).int_val());
        }
        if (step == mutations.size()) return true;
        const bool landed = LandWhileParked(mutations[step++], &pending);
        EXPECT_TRUE(landed) << "mutation " << step << " blocked behind a parked scan";
        return landed;
      },
      &sealed, &open);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (auto& f : pending) f.wait();
  EXPECT_EQ(step, mutations.size());

  // Groups 0-2 as applied before the scan, then group 3 of the new epoch.
  std::vector<int64_t> want;
  for (size_t pos = 0; pos < 3 * kG; ++pos) {
    if (TupleVisible(applied[pos].xmin, applied[pos].xmax, ctx)) {
      want.push_back(applied[pos].key);
    }
  }
  for (size_t pos = 3 * kG; pos < refill.size(); ++pos) {
    if (TupleVisible(refill[pos].xmin, refill[pos].xmax, ctx)) {
      want.push_back(refill[pos].key);
    }
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
  // Groups 0 and 2 were sealed when the scan decoded them.
  EXPECT_EQ(sealed, want.size());
  EXPECT_EQ(open, 0u);
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
