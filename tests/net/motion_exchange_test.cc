#include "net/motion_exchange.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace gphtap {
namespace {

Row R(int64_t v) { return Row{Datum(v)}; }

TEST(MotionExchangeTest, SingleSenderSingleReceiver) {
  MotionExchange ex(1, 1, 16);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ex.Send(0, R(i)));
  ex.CloseSender();
  for (int i = 0; i < 5; ++i) {
    auto row = ex.Recv(0);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0].int_val(), i);
  }
  EXPECT_FALSE(ex.Recv(0).has_value());
}

TEST(MotionExchangeTest, EosWaitsForAllSenders) {
  MotionExchange ex(3, 1, 16);
  ex.Send(0, R(1));
  ex.CloseSender();
  ex.CloseSender();
  // Third sender still open: after draining, Recv must block, not EOS.
  auto row = ex.Recv(0);
  ASSERT_TRUE(row.has_value());
  std::atomic<bool> got_eos{false};
  std::thread t([&] {
    EXPECT_FALSE(ex.Recv(0).has_value());
    got_eos = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_eos.load());
  ex.CloseSender();
  t.join();
  EXPECT_TRUE(got_eos.load());
}

TEST(MotionExchangeTest, RedistributionByReceiverIndex) {
  MotionExchange ex(1, 3, 16);
  ex.Send(0, R(10));
  ex.Send(1, R(11));
  ex.Send(2, R(12));
  ex.CloseSender();
  EXPECT_EQ((*ex.Recv(0))[0].int_val(), 10);
  EXPECT_EQ((*ex.Recv(1))[0].int_val(), 11);
  EXPECT_EQ((*ex.Recv(2))[0].int_val(), 12);
}

TEST(MotionExchangeTest, BroadcastDeliversToAll) {
  MotionExchange ex(1, 3, 16);
  EXPECT_TRUE(ex.SendToAll(R(7)));
  ex.CloseSender();
  for (int r = 0; r < 3; ++r) {
    auto row = ex.Recv(r);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0].int_val(), 7);
  }
}

TEST(MotionExchangeTest, FullBufferBlocksSenderUntilRecv) {
  MotionExchange ex(1, 1, 2);
  EXPECT_TRUE(ex.Send(0, R(1)));
  EXPECT_TRUE(ex.Send(0, R(2)));
  std::atomic<bool> third_sent{false};
  std::thread sender([&] {
    EXPECT_TRUE(ex.Send(0, R(3)));
    third_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_sent.load()) << "bounded buffer did not apply backpressure";
  ex.Recv(0);
  sender.join();
  EXPECT_TRUE(third_sent.load());
}

TEST(MotionExchangeTest, AbortUnblocksEveryone) {
  MotionExchange ex(1, 2, 1);
  EXPECT_TRUE(ex.Send(0, R(1)));
  std::atomic<int> released{0};
  std::thread blocked_sender([&] {
    ex.Send(0, R(2));  // buffer full -> blocks until abort
    released++;
  });
  std::thread blocked_receiver([&] {
    ex.Recv(1);  // nothing for receiver 1 -> blocks until abort
    released++;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(released.load(), 0);
  ex.Abort();
  blocked_sender.join();
  blocked_receiver.join();
  EXPECT_EQ(released.load(), 2);
  EXPECT_FALSE(ex.Send(0, R(9)));
  EXPECT_TRUE(ex.aborted());
}

TEST(MotionExchangeTest, NetChargedPerMessageBatch) {
  SimNet net(0);
  MotionExchange ex(1, 1, 1 << 16, &net);
  for (uint64_t i = 0; i < MotionExchange::kRowsPerMessage * 3; ++i) {
    ASSERT_TRUE(ex.Send(0, R(static_cast<int64_t>(i))));
  }
  EXPECT_EQ(net.count(MsgKind::kTupleData), 3u);
}

BatchPtr MakeBatch(int64_t start, int64_t n) {
  auto b = std::make_shared<ColumnBatch>();
  b->Reset(1, static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) b->AppendRow(R(start + i));
  return b;
}

TEST(MotionExchangeTest, BatchNetChargedByActualRows) {
  SimNet net(0);
  MotionExchange ex(1, 1, 1 << 16, &net);
  // 256 live rows = 4 message windows, not 1 per SendBatch call.
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(0, 256)));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 4u);
  // A small batch opens the next 64-row window: exactly one more message.
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(256, 3)));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 5u);
  // 61 more rows stay inside that window: no extra charge.
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(259, 61)));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 5u);
}

// The bound counts rows: a batch weighs its live rows, and a send is admitted
// while fewer rows than the bound are queued, so one batch larger than the
// bound still moves, and the next one waits for it to drain.
TEST(MotionExchangeTest, BufferBoundCountsBatchRows) {
  MotionExchange ex(1, 1, 8);
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(0, 1024)));
  std::atomic<bool> second_sent{false};
  std::thread sender([&] {
    EXPECT_TRUE(ex.SendBatch(0, MakeBatch(1024, 1)));
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_sent.load()) << "1,024 queued rows did not apply backpressure";
  auto first = ex.RecvBatch(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->ActiveRows(), 1024u);
  sender.join();
  EXPECT_TRUE(second_sent.load());
  auto second = ex.RecvBatch(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->columns[0].GetDatum(0).int_val(), 1024);
}

TEST(MotionExchangeTest, BatchWithDeletedRowsChargesLiveRowsOnly) {
  SimNet net(0);
  MotionExchange ex(1, 1, 1 << 16, &net);
  BatchPtr b = MakeBatch(0, 200);
  b->sel.resize(10);  // only 10 rows survive the selection vector
  ASSERT_TRUE(ex.SendBatch(0, b));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 1u);
  // Empty batches ship nothing and charge nothing.
  BatchPtr empty = MakeBatch(0, 5);
  empty->sel.clear();
  ASSERT_TRUE(ex.SendBatch(0, empty));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 1u);
}

TEST(MotionExchangeTest, RowAndBatchShareOneAccountingWindow) {
  SimNet net(0);
  MotionExchange ex(1, 1, 1 << 16, &net);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ex.Send(0, R(i)));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 1u);
  // Rows 10..109: crosses exactly the 64-row boundary.
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(10, 100)));
  EXPECT_EQ(net.count(MsgKind::kTupleData), 2u);
}

TEST(MotionExchangeTest, RowPathAccountingUnchanged) {
  SimNet net(0);
  MetricsRegistry metrics;
  net.set_metrics(&metrics);
  MotionExchange ex(1, 1, 1 << 16, &net);
  for (uint64_t i = 0; i < MotionExchange::kRowsPerMessage * 2 + 1; ++i) {
    ASSERT_TRUE(ex.Send(0, R(static_cast<int64_t>(i))));
  }
  EXPECT_EQ(net.count(MsgKind::kTupleData), 3u);
  EXPECT_EQ(metrics.counter("net.tuple_rows")->value(),
            MotionExchange::kRowsPerMessage * 2 + 1);
  EXPECT_EQ(metrics.counter("net.tuple_batches")->value(), 0u);
}

TEST(MotionExchangeTest, BatchCountersTallyRowsAndBatches) {
  SimNet net(0);
  MetricsRegistry metrics;
  net.set_metrics(&metrics);
  MotionExchange ex(1, 1, 1 << 16, &net);
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(0, 100)));
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(100, 28)));
  EXPECT_EQ(metrics.counter("net.tuple_rows")->value(), 128u);
  EXPECT_EQ(metrics.counter("net.tuple_batches")->value(), 2u);
}

TEST(MotionExchangeTest, RecvExplodesBatchesIntoRows) {
  MotionExchange ex(1, 1, 16);
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(0, 5)));
  ASSERT_TRUE(ex.Send(0, R(99)));
  ex.CloseSender();
  for (int64_t i = 0; i < 5; ++i) {
    auto row = ex.Recv(0);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0].int_val(), i);
  }
  EXPECT_EQ((*ex.Recv(0))[0].int_val(), 99);
  EXPECT_FALSE(ex.Recv(0).has_value());
}

TEST(MotionExchangeTest, RecvBatchWrapsRowsAndPassesBatches) {
  MotionExchange ex(1, 1, 16);
  ASSERT_TRUE(ex.Send(0, R(7)));
  ASSERT_TRUE(ex.SendBatch(0, MakeBatch(0, 3)));
  ex.CloseSender();
  auto b1 = ex.RecvBatch(0);
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->ActiveRows(), 1u);
  EXPECT_EQ(b1->columns[0].GetDatum(0).int_val(), 7);
  auto b2 = ex.RecvBatch(0);
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->ActiveRows(), 3u);
  EXPECT_FALSE(ex.RecvBatch(0).has_value());
}

TEST(MotionExchangeTest, BroadcastBatchReachesEveryReceiver) {
  MotionExchange ex(1, 3, 16);
  ASSERT_TRUE(ex.SendBatchToAll(MakeBatch(0, 4)));
  ex.CloseSender();
  for (int r = 0; r < 3; ++r) {
    auto b = ex.RecvBatch(r);
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(b->ActiveRows(), 4u);
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(b->columns[0].GetDatum(static_cast<size_t>(i)).int_val(), i);
    }
  }
}

TEST(MotionExchangeTest, ManySendersManyReceiversStress) {
  constexpr int kSenders = 4, kReceivers = 4, kRows = 2000;
  MotionExchange ex(kSenders, kReceivers, 64);
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kRows; ++i) {
        int64_t v = s * kRows + i;
        ex.Send(static_cast<int>(v % kReceivers), R(v));
      }
      ex.CloseSender();
    });
  }
  for (int r = 0; r < kReceivers; ++r) {
    threads.emplace_back([&, r] {
      while (auto row = ex.Recv(r)) sum += (*row)[0].int_val();
    });
  }
  for (auto& t : threads) t.join();
  long expected = 0;
  for (long v = 0; v < kSenders * kRows; ++v) expected += v;
  EXPECT_EQ(sum.load(), expected);
}

TEST(SimNetTest, CountsAndLatency) {
  SimNet net(1000);
  Stopwatch sw;
  net.Deliver(MsgKind::kPrepare);
  net.Deliver(MsgKind::kPrepareAck);
  EXPECT_GE(sw.ElapsedMicros(), 1800);
  EXPECT_EQ(net.count(MsgKind::kPrepare), 1u);
  EXPECT_EQ(net.TotalMessages(), 2u);
}

}  // namespace
}  // namespace gphtap
