// Wait-event plumbing: the ambient WaitContext, RAII scopes publishing live
// state, and the (event, node, group)-keyed registry — including concurrent
// recording from many threads (the TSan build exercises the locking).
#include "common/wait_event.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "stats/statement_record.h"

namespace gphtap {
namespace {

TEST(WaitEventNamesTest, EveryEventHasClassAndName) {
  for (WaitEvent e :
       {WaitEvent::kLockRelation, WaitEvent::kLockTuple, WaitEvent::kLockTransaction,
        WaitEvent::kMotionSend, WaitEvent::kMotionRecv, WaitEvent::kWalFsync,
        WaitEvent::kBufferRead, WaitEvent::kPrepareAck, WaitEvent::kCommitPreparedAck,
        WaitEvent::kResGroupSlot}) {
    EXPECT_NE(ClassOfEvent(e), WaitEventClass::kNone);
    EXPECT_STRNE(WaitEventName(e), "");
    EXPECT_STRNE(WaitEventClassName(ClassOfEvent(e)), "None");
  }
  EXPECT_EQ(ClassOfEvent(WaitEvent::kLockTuple), WaitEventClass::kLock);
  EXPECT_EQ(ClassOfEvent(WaitEvent::kMotionRecv), WaitEventClass::kNet);
  EXPECT_EQ(ClassOfEvent(WaitEvent::kPrepareAck), WaitEventClass::kIpc);
}

TEST(WaitEventScopeTest, NoContextInstalledIsANoop) {
  ASSERT_EQ(CurrentWaitContext(), nullptr);
  { WaitEventScope scope(WaitEvent::kLockRelation); }
  EXPECT_EQ(CurrentWaitContext(), nullptr);
}

TEST(WaitEventScopeTest, PublishesLiveStateAndRecordsOnExit) {
  WaitEventRegistry registry;
  SessionWaitState session;
  StatementRecord record;
  WaitContext ctx;
  ctx.registry = &registry;
  ctx.session = &session;
  ctx.record = &record;
  ctx.node = 2;
  ctx.group = "oltp";
  WaitContextGuard guard(ctx);

  {
    WaitEventScope scope(WaitEvent::kLockTuple);
    // Live state is visible while blocked.
    EXPECT_EQ(session.event.load(), static_cast<int>(WaitEvent::kLockTuple));
    PreciseSleepUs(500);
  }
  // Cleared on resume.
  EXPECT_EQ(session.event.load(), 0);

  std::vector<WaitEventRegistry::Entry> entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].event, WaitEvent::kLockTuple);
  EXPECT_EQ(entries[0].node, 2);
  EXPECT_EQ(entries[0].group, "oltp");
  EXPECT_EQ(entries[0].count, 1u);
  EXPECT_GE(entries[0].total_us, 400);
  EXPECT_GE(entries[0].max_us, 400);

  std::vector<StatementRecord::Wait> top = record.TopWaits(3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].event, WaitEvent::kLockTuple);
  EXPECT_EQ(top[0].count, 1u);
}

TEST(WaitEventScopeTest, NodeOverrideAndNestedScopesRestore) {
  WaitEventRegistry registry;
  SessionWaitState session;
  WaitContext ctx;
  ctx.registry = &registry;
  ctx.session = &session;
  ctx.node = -1;
  WaitContextGuard guard(ctx);

  {
    WaitEventScope outer(WaitEvent::kCommitPreparedAck, /*node_override=*/1);
    {
      WaitEventScope inner(WaitEvent::kWalFsync, /*node_override=*/1);
      EXPECT_EQ(session.event.load(), static_cast<int>(WaitEvent::kWalFsync));
    }
    // The outer event is republished when the nested wait ends.
    EXPECT_EQ(session.event.load(), static_cast<int>(WaitEvent::kCommitPreparedAck));
  }
  EXPECT_EQ(session.event.load(), 0);

  std::vector<WaitEventRegistry::Entry> entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& e : entries) EXPECT_EQ(e.node, 1);
}

TEST(WaitEventScopeTest, WaitIntervalsBecomeTraceSpans) {
  Trace trace(7);
  uint64_t parent = trace.StartSpan("query");
  StatementRecord record;
  record.trace = &trace;
  WaitContext ctx;
  ctx.record = &record;
  ctx.parent_span = parent;
  WaitContextGuard guard(ctx);

  { WaitEventScope scope(WaitEvent::kMotionRecv); }
  trace.EndSpan(parent);

  bool found = false;
  for (const TraceSpan& span : trace.Spans()) {
    if (span.name.find("motion_recv") != std::string::npos) {
      found = true;
      EXPECT_EQ(span.parent_id, parent);
      EXPECT_NE(span.end_us, 0);
    }
  }
  EXPECT_TRUE(found) << "no wait span recorded";
}

TEST(WaitContextGuardTest, OnlyIfAbsentKeepsTheOuterContext) {
  WaitEventRegistry outer_registry, inner_registry;
  WaitContext outer;
  outer.registry = &outer_registry;
  WaitContextGuard outer_guard(outer);
  {
    WaitContext inner;
    inner.registry = &inner_registry;
    WaitContextGuard inner_guard(inner, /*only_if_absent=*/true);
    { WaitEventScope scope(WaitEvent::kBufferRead); }
  }
  // The nested entry point must NOT have shadowed the session's context.
  EXPECT_EQ(outer_registry.Snapshot().size(), 1u);
  EXPECT_TRUE(inner_registry.Snapshot().empty());
}

TEST(WaitEventRegistryTest, ConcurrentRecordingAccumulates) {
  WaitEventRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kWaitsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      WaitContext ctx;
      ctx.registry = &registry;
      ctx.node = t % 3;
      ctx.group = t % 2 == 0 ? "oltp" : "olap";
      WaitContextGuard guard(ctx);
      for (int i = 0; i < kWaitsPerThread; ++i) {
        WaitEventScope scope(i % 2 == 0 ? WaitEvent::kLockTuple
                                        : WaitEvent::kMotionSend);
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t total = 0;
  for (const auto& e : registry.Snapshot()) total += e.count;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads * kWaitsPerThread));
}

}  // namespace
}  // namespace gphtap
