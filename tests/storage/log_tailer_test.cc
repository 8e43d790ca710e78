// LogTailer: one thread applying a change log in order, shared by the mirror
// replayer and the delta feed.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "storage/log_tailer.h"

namespace gphtap {
namespace {

ChangeRecord Insert(TupleId tid) {
  ChangeRecord rec;
  rec.kind = ChangeKind::kInsert;
  rec.tid = tid;
  return rec;
}

// Collects the tids a tailer applied, in the order it applied them.
struct Collector {
  LogTailer::Apply apply() {
    return [this](const ChangeRecord& rec, std::stop_token) {
      std::lock_guard<std::mutex> g(mu);
      tids.push_back(rec.tid);
      return Status::OK();
    };
  }
  std::vector<TupleId> seen() {
    std::lock_guard<std::mutex> g(mu);
    return tids;
  }
  std::mutex mu;
  std::vector<TupleId> tids;
};

std::vector<TupleId> Iota(TupleId n) {
  std::vector<TupleId> out;
  for (TupleId i = 0; i < n; ++i) out.push_back(i);
  return out;
}

TEST(LogTailerTest, TwoTailersEachApplyEveryRecordInOrder) {
  constexpr TupleId kRecords = 5'000;
  ChangeLog log;
  Collector a, b;
  LogTailer ta(&log, a.apply());
  std::thread writer([&] {
    for (TupleId i = 0; i < kRecords; ++i) log.Append(Insert(i));
  });
  LogTailer tb(&log, b.apply());  // starts while the writer appends
  writer.join();
  ASSERT_TRUE(ta.WaitForApplied(kRecords, 5'000'000).ok());
  ASSERT_TRUE(tb.WaitForApplied(kRecords, 5'000'000).ok());
  EXPECT_EQ(ta.applied(), kRecords);
  EXPECT_EQ(tb.applied(), kRecords);
  EXPECT_EQ(a.seen(), Iota(kRecords));
  EXPECT_EQ(b.seen(), Iota(kRecords));
}

TEST(LogTailerTest, StoppingOneLeavesTheOtherApplying) {
  ChangeLog log;
  Collector a, b;
  LogTailer ta(&log, a.apply());
  LogTailer tb(&log, b.apply());
  for (TupleId i = 0; i < 10; ++i) log.Append(Insert(i));
  ASSERT_TRUE(ta.WaitForApplied(10, 5'000'000).ok());
  ta.Stop();
  for (TupleId i = 10; i < 20; ++i) log.Append(Insert(i));
  ASSERT_TRUE(tb.WaitForApplied(20, 5'000'000).ok());
  EXPECT_EQ(b.seen(), Iota(20));
  EXPECT_EQ(ta.applied(), 10u);
  EXPECT_EQ(a.seen(), Iota(10));
  // A stopped tailer reports it rather than waiting out the timeout.
  EXPECT_EQ(ta.WaitForApplied(20, 5'000'000).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(ta.WaitForApplied(10, 0).ok());
}

TEST(LogTailerTest, WaitForAppliedReturnsOnceReachedAndTimesOutOtherwise) {
  ChangeLog log;
  // The apply blocks until released, so the test controls what is applied.
  std::atomic<bool> release{false};
  LogTailer t(&log, [&](const ChangeRecord&, std::stop_token stop) {
    while (!release.load() && !stop.stop_requested()) std::this_thread::yield();
    return Status::OK();
  });
  EXPECT_TRUE(t.WaitForApplied(0, 0).ok());
  log.Append(Insert(0));
  log.Append(Insert(1));
  EXPECT_EQ(t.WaitForApplied(1, 20'000).code(), StatusCode::kTimedOut);
  EXPECT_EQ(t.applied(), 0u);

  std::atomic<bool> reached{false};
  std::thread waiter([&] {
    EXPECT_TRUE(t.WaitForApplied(2, 5'000'000).ok());
    reached.store(true);
  });
  release.store(true);
  waiter.join();
  EXPECT_TRUE(reached.load());
  EXPECT_EQ(t.applied(), 2u);
  // Past the end of the log: times out.
  EXPECT_EQ(t.WaitForApplied(3, 10'000).code(), StatusCode::kTimedOut);
}

TEST(LogTailerTest, StopIsPromptOnAnIdleLog) {
  ChangeLog log;
  log.Append(Insert(0));
  Collector c;
  LogTailer t(&log, c.apply());
  ASSERT_TRUE(t.WaitForApplied(1, 5'000'000).ok());
  PreciseSleepUs(20'000);  // parked on the log
  const int64_t start = MonotonicMicros();
  t.Stop();
  EXPECT_LT(MonotonicMicros() - start, 100'000);
  t.Stop();  // idempotent
  // The log stays open: appends still land for any other reader.
  log.Append(Insert(1));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.At(1).tid, 1u);
}

TEST(LogTailerTest, FirstErrorIsStickyAndLaterRecordsStillApply) {
  ChangeLog log;
  LogTailer t(&log, [](const ChangeRecord& rec, std::stop_token) {
    if (rec.tid == 1) return Status::Internal("first error");
    if (rec.tid == 2) return Status::NotFound("second error");
    return Status::OK();
  });
  EXPECT_TRUE(t.error().ok());
  for (TupleId i = 0; i < 4; ++i) log.Append(Insert(i));
  ASSERT_TRUE(t.WaitForApplied(4, 5'000'000).ok());
  EXPECT_EQ(t.error().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gphtap
