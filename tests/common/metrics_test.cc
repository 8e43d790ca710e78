#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/trace.h"
#include "stats/statement_record.h"

namespace gphtap {
namespace {

TEST(MetricsTest, CounterSemantics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("txn.committed");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, GetOrCreateReturnsSamePointer) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("a"), reg.counter("a"));
  EXPECT_NE(reg.counter("a"), reg.counter("b"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
}

TEST(MetricsTest, GaugeGoesUpAndDown) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("lock.queue_depth");
  g->Add(5);
  g->Add(-3);
  EXPECT_EQ(g->value(), 2);
  g->Set(-7);
  EXPECT_EQ(g->value(), -7);
}

TEST(MetricsTest, HistogramMetricRecordsThroughSnapshot) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.histogram("lat");
  for (int i = 0; i < 100; ++i) h->Record(100);
  Histogram snap = h->snapshot();
  EXPECT_EQ(snap.count(), 100);
  EXPECT_EQ(snap.Percentile(50), 100);
}

TEST(MetricsTest, SnapshotCopiesValuesAndLookupDefaultsToZero) {
  MetricsRegistry reg;
  reg.counter("x")->Add(7);
  reg.gauge("y")->Set(-3);
  reg.histogram("z")->Record(10);
  MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("x"), 7u);
  EXPECT_EQ(snap.gauge("y"), -3);
  EXPECT_EQ(snap.histograms.at("z").count(), 1);
  EXPECT_EQ(snap.counter("never.registered"), 0u);
  EXPECT_EQ(snap.gauge("never.registered"), 0);
  // The snapshot is a copy: later updates don't retroactively change it.
  reg.counter("x")->Add(100);
  EXPECT_EQ(snap.counter("x"), 7u);
}

TEST(MetricsTest, ToStringListsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("net.sent.dispatch")->Add(3);
  reg.gauge("txn.running")->Set(2);
  std::string dump = reg.TakeSnapshot().ToString();
  EXPECT_NE(dump.find("net.sent.dispatch = 3"), std::string::npos);
  EXPECT_NE(dump.find("txn.running = 2"), std::string::npos);
}

// Registry concurrency: get-or-create races on the same names must converge
// on one shared metric with no lost updates.
TEST(MetricsTest, ConcurrentGetOrCreateAndIncrement) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.counter("shared.counter")->Add(1);
        reg.gauge("shared.gauge")->Add(1);
        if (i % 100 == 0) reg.histogram("shared.hist")->Record(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("shared.counter"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snap.gauge("shared.gauge"), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(snap.histograms.at("shared.hist").count(), kThreads * (kIncrements / 100));
}

// ---- Trace primitives (the cluster-level integration lives in
// tests/cluster/observability_test.cc) ----

TEST(TraceTest, SpanTreeParentChildOrdering) {
  Trace trace(7);
  EXPECT_EQ(trace.trace_id(), 7u);
  uint64_t root = trace.StartSpan("query");
  uint64_t child = trace.StartSpan("slice:top", root, Trace::kCoordinatorNode);
  uint64_t seg = trace.StartSpan("slice:motion1", root, /*node=*/2);
  trace.EndSpan(seg, 10);
  trace.EndSpan(child, 10);
  trace.EndSpan(root, 10);

  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, root);
  EXPECT_EQ(spans[2].parent_id, root);
  EXPECT_EQ(spans[2].node, 2);
  for (const auto& s : spans) {
    EXPECT_GT(s.end_us, 0);
    EXPECT_GE(s.end_us, s.start_us);
  }
  EXPECT_NE(trace.ToString().find("slice:motion1"), std::string::npos);
}

TEST(OperatorStatsTest, AccumulatesRowsKeepsMaxTime) {
  StatementRecord c;
  c.AddOperator(3, 100, 50);
  c.AddOperator(3, 200, 80);
  auto s = c.Operator(3);
  EXPECT_EQ(s.rows, 300);
  EXPECT_EQ(s.executions, 2);
  EXPECT_EQ(s.total_time_us, 130);
  EXPECT_EQ(s.max_time_us, 80);
  EXPECT_EQ(c.Operator(99).rows, 0);
}

TEST(SlowQueryLogTest, RingDropsOldest) {
  SlowQueryLog log(/*capacity=*/2);
  log.Record("q1", 100, 1);
  log.Record("q2", 200, 2);
  log.Record("q3", 300, 3);
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].sql, "q2");
  EXPECT_EQ(entries[1].sql, "q3");
}

}  // namespace
}  // namespace gphtap
