#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "lock/lock_owner.h"
#include "txn/clog.h"
#include "txn/distributed_log.h"
#include "txn/distributed_txn_manager.h"
#include "txn/local_txn_manager.h"
#include "txn/wal.h"

namespace gphtap {
namespace {

struct SegmentFixture {
  SegmentFixture() { mgr.set_change_log(&log); }
  CommitLog clog;
  DistributedLog dlog;
  Wal wal{0};
  ChangeLog log;
  LocalTxnManager mgr{&clog, &dlog, &wal};
};

TEST(LocalTxnManagerTest, AssignXidIsStablePerGxid) {
  SegmentFixture f;
  LocalXid x1 = *f.mgr.AssignXid(100);
  LocalXid x2 = *f.mgr.AssignXid(100);
  EXPECT_EQ(x1, x2);
  LocalXid x3 = *f.mgr.AssignXid(101);
  EXPECT_NE(x1, x3);
  EXPECT_TRUE(f.mgr.HasWritten(100));
  EXPECT_FALSE(f.mgr.HasWritten(999));
}

TEST(LocalTxnManagerTest, MappingRecorded) {
  SegmentFixture f;
  LocalXid x = *f.mgr.AssignXid(42);
  auto g = f.dlog.Lookup(x);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g, 42u);
}

TEST(LocalTxnManagerTest, CommitFlipsClogAndLeavesRunningSet) {
  SegmentFixture f;
  LocalXid x = *f.mgr.AssignXid(1);
  EXPECT_EQ(f.clog.GetState(x), TxnState::kInProgress);
  EXPECT_TRUE(f.mgr.Commit(1).ok());
  EXPECT_EQ(f.clog.GetState(x), TxnState::kCommitted);
  EXPECT_EQ(f.mgr.NumRunning(), 0u);
  EXPECT_FALSE(f.mgr.GxidOfRunning(x).has_value());
}

TEST(LocalTxnManagerTest, AbortFlipsClog) {
  SegmentFixture f;
  LocalXid x = *f.mgr.AssignXid(1);
  EXPECT_TRUE(f.mgr.Abort(1).ok());
  EXPECT_EQ(f.clog.GetState(x), TxnState::kAborted);
}

TEST(LocalTxnManagerTest, PrepareThenCommitPrepared) {
  SegmentFixture f;
  LocalXid x = *f.mgr.AssignXid(1);
  EXPECT_TRUE(f.mgr.Prepare(1).ok());
  EXPECT_EQ(f.clog.GetState(x), TxnState::kPrepared);
  EXPECT_EQ(f.mgr.NumRunning(), 1u);  // still running until phase 2
  EXPECT_TRUE(f.mgr.CommitPrepared(1).ok());
  EXPECT_EQ(f.clog.GetState(x), TxnState::kCommitted);
}

TEST(LocalTxnManagerTest, PrepareThenAbort) {
  SegmentFixture f;
  LocalXid x = *f.mgr.AssignXid(1);
  EXPECT_TRUE(f.mgr.Prepare(1).ok());
  EXPECT_TRUE(f.mgr.Abort(1).ok());
  EXPECT_EQ(f.clog.GetState(x), TxnState::kAborted);
}

TEST(LocalTxnManagerTest, PrepareUnknownFails) {
  SegmentFixture f;
  EXPECT_FALSE(f.mgr.Prepare(77).ok());
}

TEST(LocalTxnManagerTest, CommitWithoutWriteIsNoop) {
  SegmentFixture f;
  EXPECT_TRUE(f.mgr.Commit(5).ok());
  EXPECT_EQ(f.log.size(), 0u);
}

TEST(LocalTxnManagerTest, WalCountsFsyncs) {
  SegmentFixture f;
  *f.mgr.AssignXid(1);
  f.mgr.Prepare(1);
  f.mgr.CommitPrepared(1);
  // Begin is not fsynced; prepare and commit-prepared are.
  EXPECT_EQ(f.log.size(), 3u);
  EXPECT_EQ(f.wal.fsyncs(), 2u);
}

TEST(LocalTxnManagerTest, LocalSnapshotSeesRunning) {
  SegmentFixture f;
  LocalXid x1 = *f.mgr.AssignXid(1);
  LocalXid x2 = *f.mgr.AssignXid(2);
  f.mgr.Commit(1);
  LocalSnapshot snap = f.mgr.TakeLocalSnapshot();
  EXPECT_FALSE(snap.IsRunning(x1));
  EXPECT_TRUE(snap.IsRunning(x2));
  EXPECT_TRUE(snap.IsRunning(x2 + 100));  // future xids treated as running
}

TEST(DistributedTxnManagerTest, GxidsMonotonic) {
  DistributedTxnManager m;
  auto o1 = std::make_shared<LockOwner>(0);
  Gxid g1 = m.Begin(o1);
  Gxid g2 = m.Begin(o1);
  EXPECT_LT(g1, g2);
}

TEST(DistributedTxnManagerTest, SnapshotTracksInProgress) {
  DistributedTxnManager m;
  auto o = std::make_shared<LockOwner>(0);
  Gxid g1 = m.Begin(o);
  Gxid g2 = m.Begin(o);
  DistributedSnapshot snap = m.TakeSnapshot();
  EXPECT_TRUE(snap.IsRunning(g1));
  EXPECT_TRUE(snap.IsRunning(g2));
  EXPECT_TRUE(snap.IsRunning(g2 + 1));  // future
  m.MarkCommitted(g1);
  DistributedSnapshot snap2 = m.TakeSnapshot();
  EXPECT_FALSE(snap2.IsRunning(g1));
  EXPECT_TRUE(snap2.IsRunning(g2));
  EXPECT_EQ(snap2.max_committed, g1);
  // The earlier snapshot still sees g1 as running (repeatable reads).
  EXPECT_TRUE(snap.IsRunning(g1));
}

TEST(DistributedTxnManagerTest, OwnerLookup) {
  DistributedTxnManager m;
  auto o = std::make_shared<LockOwner>(123);
  Gxid g = m.Begin(o);
  EXPECT_EQ(m.OwnerOf(g).get(), o.get());
  EXPECT_TRUE(m.IsRunning(g));
  m.MarkAborted(g);
  EXPECT_EQ(m.OwnerOf(g), nullptr);
  EXPECT_FALSE(m.IsRunning(g));
}

TEST(DistributedTxnManagerTest, OldestVisibleRespectsPinnedSnapshots) {
  DistributedTxnManager m;
  auto o = std::make_shared<LockOwner>(0);
  Gxid g1 = m.Begin(o);
  m.TakeSnapshot(g1);
  Gxid g2 = m.Begin(o);
  m.TakeSnapshot(g2);
  // g1 is the oldest running txn; nothing below it is needed.
  EXPECT_EQ(m.OldestVisibleGxid(), g1);
  m.MarkCommitted(g1);
  // g2's snapshot was taken while g1 ran, so g2 can still "see" g1 as running:
  // the horizon must stay at g1 until g2 ends.
  EXPECT_EQ(m.OldestVisibleGxid(), g1);
  m.MarkCommitted(g2);
  EXPECT_GT(m.OldestVisibleGxid(), g2);
}

// A transaction's first snapshot pins the truncation horizon in the same call
// that takes it. The interleaving this closes: A and S run, S takes its
// snapshot (A running in it), A commits, and maintenance truncates the xid
// map at OldestVisibleGxid() before S's pin could land. A reader of S would
// then find no mapping for A's local xid and judge A by a later local
// snapshot, which sees A committed.
TEST(DistributedTxnManagerTest, SnapshotPinsHorizonBeforeTruncation) {
  constexpr LocalXid kAXid = 7;
  // Returns whether A's mapping survives; `pinned` takes S's snapshot with
  // its pin, otherwise the pin comes in a later call, after the truncation.
  auto a_survives = [](bool pinned) {
    DistributedTxnManager m;
    DistributedLog dlog;
    auto o = std::make_shared<LockOwner>(0);
    Gxid a = m.Begin(o);
    dlog.Record(kAXid, a);
    Gxid s = m.Begin(o);
    DistributedSnapshot snap = pinned ? m.TakeSnapshot(s) : m.TakeSnapshot();
    EXPECT_TRUE(snap.IsRunning(a));
    m.MarkCommitted(a);
    dlog.TruncateBelow(m.OldestVisibleGxid());
    if (!pinned) m.TakeSnapshot(s);  // the pin lands too late
    return dlog.Lookup(kAXid) == std::optional<Gxid>(a);
  };
  EXPECT_TRUE(a_survives(/*pinned=*/true));
  EXPECT_FALSE(a_survives(/*pinned=*/false));
}

// Callers read an xid's state before and after it registers: a tuple's xid
// was registered before the tuple was written, and a crash-recovery replay
// sets states out of order.
TEST(CommitLogTest, UnregisteredXidsReadInProgressBelowTheHighestAndAbortedAbove) {
  CommitLog clog;
  EXPECT_EQ(clog.GetState(kInvalidLocalXid), TxnState::kAborted);
  EXPECT_EQ(clog.GetState(1), TxnState::kAborted);
  clog.Register(5);
  EXPECT_EQ(clog.GetState(3), TxnState::kInProgress);  // never registered
  EXPECT_EQ(clog.GetState(5), TxnState::kInProgress);
  EXPECT_EQ(clog.GetState(6), TxnState::kAborted);
  EXPECT_EQ(clog.GetState(kInvalidLocalXid), TxnState::kAborted);

  // SetState past the highest xid extends the range across chunks.
  const LocalXid far = 3 * XidTable<TxnState>::kChunkXids + 7;
  clog.SetState(far, TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(far), TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(far - 1), TxnState::kInProgress);
  EXPECT_EQ(clog.GetState(2 * XidTable<TxnState>::kChunkXids), TxnState::kInProgress);
  EXPECT_EQ(clog.GetState(far + 1), TxnState::kAborted);
  EXPECT_TRUE(clog.IsCommitted(far));

  // The last xid of the 32-bit space is an ordinary slot.
  const LocalXid last = 0xFFFFFFFFu;
  clog.SetState(last, TxnState::kPrepared);
  EXPECT_EQ(clog.GetState(last), TxnState::kPrepared);
  EXPECT_EQ(clog.GetState(last - 1), TxnState::kInProgress);
}

TEST(CommitLogTest, ResetClearsBothTables) {
  SegmentFixture f;
  LocalXid x1 = *f.mgr.AssignXid(10);
  LocalXid x2 = *f.mgr.AssignXid(11);
  ASSERT_TRUE(f.mgr.Commit(10).ok());
  ASSERT_TRUE(f.mgr.Abort(11).ok());
  ASSERT_EQ(f.dlog.size(), 2u);

  f.clog.Reset();
  f.dlog.Reset();
  EXPECT_EQ(f.clog.GetState(x1), TxnState::kAborted);  // above the (empty) range
  EXPECT_EQ(f.clog.GetState(x2), TxnState::kAborted);
  EXPECT_FALSE(f.dlog.Lookup(x1).has_value());
  EXPECT_FALSE(f.dlog.Lookup(x2).has_value());
  EXPECT_EQ(f.dlog.size(), 0u);
  EXPECT_EQ(f.dlog.TruncateBelow(100), 0u);

  // The replay rebuilds on the same storage: nothing of the old state shows.
  f.clog.Register(x2);
  EXPECT_EQ(f.clog.GetState(x1), TxnState::kInProgress);
  EXPECT_EQ(f.clog.GetState(x2), TxnState::kInProgress);
  f.dlog.Record(x2, 30);
  EXPECT_FALSE(f.dlog.Lookup(x1).has_value());
  EXPECT_EQ(f.dlog.Lookup(x2), std::optional<Gxid>(30));
  EXPECT_EQ(f.dlog.size(), 1u);
}

TEST(DistributedLogTest, TruncateBelowDropsOldEntries) {
  DistributedLog dlog;
  dlog.Record(1, 10);
  dlog.Record(2, 20);
  dlog.Record(3, 30);
  EXPECT_EQ(dlog.TruncateBelow(25), 2u);
  EXPECT_FALSE(dlog.Lookup(1).has_value());
  EXPECT_FALSE(dlog.Lookup(2).has_value());
  ASSERT_TRUE(dlog.Lookup(3).has_value());
  EXPECT_EQ(*dlog.Lookup(3), 30u);
}

// Local xids and gxids are assigned by different counters, so the mapping is
// not monotonic: truncation must look at every entry, across chunks, and a
// later Record below the truncated range must still count.
TEST(DistributedLogTest, TruncateBelowClearsOnlyOlderGxidsAndSizeCountsTheRest) {
  DistributedLog dlog;
  const LocalXid chunk = XidTable<Gxid>::kChunkXids;
  const std::vector<std::pair<LocalXid, Gxid>> entries = {
      {1, 50}, {2, 10}, {3, 70}, {4, 20}, {chunk + 1, 5}, {2 * chunk + 9, 60}};
  for (const auto& [local, gxid] : entries) dlog.Record(local, gxid);
  EXPECT_EQ(dlog.size(), entries.size());
  EXPECT_FALSE(dlog.Lookup(5).has_value());  // never recorded

  EXPECT_EQ(dlog.TruncateBelow(50), 3u);  // gxids 10, 20 and 5
  EXPECT_EQ(dlog.size(), 3u);
  for (const auto& [local, gxid] : entries) {
    if (gxid < 50) {
      EXPECT_FALSE(dlog.Lookup(local).has_value()) << local;
    } else {
      EXPECT_EQ(dlog.Lookup(local), std::optional<Gxid>(gxid)) << local;
    }
  }
  EXPECT_EQ(dlog.TruncateBelow(50), 0u);  // idempotent

  dlog.Record(2, 80);  // below the range the last pass kept
  EXPECT_EQ(dlog.size(), 4u);
  EXPECT_EQ(dlog.TruncateBelow(75), 3u);  // gxids 50, 60 and 70
  EXPECT_EQ(dlog.size(), 1u);
  EXPECT_EQ(dlog.Lookup(2), std::optional<Gxid>(80));
  EXPECT_FALSE(dlog.Lookup(1).has_value());
}

// Resident memory of this process.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t pages = 0;
  statm >> pages >> pages;  // size, then resident
  return pages * sysconf(_SC_PAGESIZE);
}

// With maintenance on, the map must stay bounded by the entries it keeps:
// chunks that truncation empties give their pages back and still read empty.
TEST(DistributedLogTest, TruncationGivesBackTheMemoryOfEmptiedChunks) {
  DistributedLog dlog;
  const LocalXid chunk = XidTable<Gxid>::kChunkXids;
  const LocalXid end = 64 * chunk;  // 2 MiB of gxids
  for (LocalXid x = 1; x < end; ++x) dlog.Record(x, x);

  // Gxid = xid, so this empties chunks 0-47 (1.5 MiB) and keeps the rest.
  const Gxid horizon = 48 * chunk + 5;
  const int64_t before = ResidentBytes();
  EXPECT_EQ(dlog.TruncateBelow(horizon), horizon - 1);
  EXPECT_GE(before - ResidentBytes(), int64_t{1} << 20);
  EXPECT_EQ(dlog.size(), end - horizon);
  EXPECT_FALSE(dlog.Lookup(1).has_value());
  EXPECT_FALSE(dlog.Lookup(horizon - 1).has_value());
  EXPECT_EQ(dlog.Lookup(horizon), std::optional<Gxid>(horizon));
  EXPECT_EQ(dlog.Lookup(end - 1), std::optional<Gxid>(end - 1));

  // A late Record lands in a chunk whose pages went back.
  dlog.Record(3, end + 1);
  EXPECT_EQ(dlog.Lookup(3), std::optional<Gxid>(end + 1));
  EXPECT_EQ(dlog.TruncateBelow(end + 2), end - horizon + 1);
  EXPECT_EQ(dlog.size(), 0u);
  EXPECT_FALSE(dlog.Lookup(3).has_value());
}

}  // namespace
}  // namespace gphtap
