#include "net/motion_exchange.h"

#include "common/clock.h"
#include "common/wait_event.h"

namespace gphtap {

MotionExchange::MotionExchange(int num_senders, int num_receivers, size_t buffer_rows,
                               SimNet* net)
    : num_senders_(num_senders), num_receivers_(num_receivers), net_(net) {
  queues_.reserve(static_cast<size_t>(num_receivers));
  eos_seen_.reserve(static_cast<size_t>(num_receivers));
  pending_rows_.reserve(static_cast<size_t>(num_receivers));
  for (int i = 0; i < num_receivers; ++i) {
    queues_.push_back(std::make_unique<Queue>(buffer_rows));
    eos_seen_.push_back(std::make_unique<std::atomic<int>>(0));
    pending_rows_.push_back(std::make_unique<std::deque<Row>>());
  }
}

void MotionExchange::ChargeRows(uint64_t n, uint64_t bytes) {
  if (n == 0) return;
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  if (net_ == nullptr) return;
  uint64_t old = rows_sent_.fetch_add(n, std::memory_order_relaxed);
  // Messages = kRowsPerMessage boundaries in [old, old + n). For n == 1 this
  // reduces to the historical "charge when old % kRowsPerMessage == 0".
  uint64_t msgs = (old + n + kRowsPerMessage - 1) / kRowsPerMessage -
                  (old + kRowsPerMessage - 1) / kRowsPerMessage;
  for (uint64_t i = 0; i < msgs; ++i) net_->Deliver(MsgKind::kTupleData);
  net_->CountTupleRows(n, bytes);
}

bool MotionExchange::PushItem(int receiver, Item item) {
  auto& queue = *queues_[static_cast<size_t>(receiver)];
  if (queue.TryPush(std::move(item))) return true;
  // Receiver buffer full (or closed): this is a real interconnect stall. Park
  // in poll-sized chunks so a GDD kill, user cancel, or statement-deadline
  // expiry on the ambient owner unblocks the sender within one chunk even if
  // the receiver never drains.
  WaitEventScope wait(WaitEvent::kMotionSend);
  Stopwatch sw;
  bool ok = false;
  while (true) {
    auto res = queue.PushFor(item, kInterruptPollUs);
    if (res == Queue::PushResult::kPushed) {
      ok = true;
      break;
    }
    if (res == Queue::PushResult::kClosed) break;
    if (!CheckAmbientInterrupt().ok()) break;
  }
  send_wait_us_.fetch_add(sw.ElapsedMicros(), std::memory_order_relaxed);
  return ok;
}

std::optional<MotionExchange::Item> MotionExchange::PopItem(int receiver) {
  auto& queue = *queues_[static_cast<size_t>(receiver)];
  auto fast = queue.TryPop();
  if (fast.has_value()) return fast;
  // Empty buffer: the consumer stalls waiting for producers (or end of stream).
  // Same chunked wait as PushItem: a receiver parked on an idle sender wakes
  // on cancellation/timeout instead of waiting for the next row.
  WaitEventScope wait(WaitEvent::kMotionRecv);
  Stopwatch sw;
  std::optional<Item> item;
  while (true) {
    item = queue.PopFor(kInterruptPollUs);
    if (item.has_value() || queue.closed()) break;
    if (!CheckAmbientInterrupt().ok()) break;
  }
  recv_wait_us_.fetch_add(sw.ElapsedMicros(), std::memory_order_relaxed);
  return item;
}

bool MotionExchange::Send(int receiver, Row row) {
  if (aborted_.load(std::memory_order_acquire)) return false;
  uint64_t bytes = sizeof(Row);
  for (const Datum& d : row) bytes += d.FootprintBytes();
  ChargeRows(1, bytes);
  return PushItem(receiver, Item(std::move(row)));
}

bool MotionExchange::SendToAll(const Row& row) {
  for (int r = 0; r < num_receivers_; ++r) {
    if (!Send(r, row)) return false;
  }
  return true;
}

bool MotionExchange::SendBatch(int receiver, BatchPtr batch) {
  if (aborted_.load(std::memory_order_acquire)) return false;
  if (batch == nullptr || batch->ActiveRows() == 0) return true;  // nothing to ship
  ChargeRows(static_cast<uint64_t>(batch->ActiveRows()),
             static_cast<uint64_t>(batch->FootprintBytes()));
  if (net_ != nullptr) net_->CountTupleBatch();
  return PushItem(receiver, Item(std::move(batch)));
}

bool MotionExchange::SendBatchToAll(const BatchPtr& batch) {
  for (int r = 0; r < num_receivers_; ++r) {
    if (!SendBatch(r, batch)) return false;
  }
  return true;
}

void MotionExchange::CloseSender() {
  int count = closed_senders_.fetch_add(1) + 1;
  (void)count;
  for (int r = 0; r < num_receivers_; ++r) {
    queues_[static_cast<size_t>(r)]->Push(Item(Eos{}));
  }
}

std::optional<Row> MotionExchange::Recv(int receiver) {
  auto& eos = *eos_seen_[static_cast<size_t>(receiver)];
  auto& pending = *pending_rows_[static_cast<size_t>(receiver)];
  while (true) {
    if (!pending.empty()) {
      Row row = std::move(pending.front());
      pending.pop_front();
      return row;
    }
    if (aborted_.load(std::memory_order_acquire)) return std::nullopt;
    auto item = PopItem(receiver);
    if (!item.has_value()) return std::nullopt;  // queue closed (abort)
    if (std::holds_alternative<Eos>(*item)) {
      if (eos.fetch_add(1) + 1 >= num_senders_) return std::nullopt;
      continue;
    }
    if (std::holds_alternative<BatchPtr>(*item)) {
      const BatchPtr& b = std::get<BatchPtr>(*item);
      for (int32_t r : b->sel) pending.push_back(b->MaterializeRow(r));
      continue;
    }
    return std::get<Row>(std::move(*item));
  }
}

std::optional<ColumnBatch> MotionExchange::RecvBatch(int receiver) {
  auto& eos = *eos_seen_[static_cast<size_t>(receiver)];
  auto& pending = *pending_rows_[static_cast<size_t>(receiver)];
  if (!pending.empty()) {
    // Mixed usage on one receiver: drain previously exploded rows first.
    ColumnBatch b;
    b.Reset(pending.front().size(), pending.size());
    while (!pending.empty()) {
      b.AppendRow(std::move(pending.front()));
      pending.pop_front();
    }
    return b;
  }
  while (true) {
    if (aborted_.load(std::memory_order_acquire)) return std::nullopt;
    auto item = PopItem(receiver);
    if (!item.has_value()) return std::nullopt;  // queue closed (abort)
    if (std::holds_alternative<Eos>(*item)) {
      if (eos.fetch_add(1) + 1 >= num_senders_) return std::nullopt;
      continue;
    }
    if (std::holds_alternative<BatchPtr>(*item)) {
      BatchPtr b = std::get<BatchPtr>(std::move(*item));
      // Sole owner (gather/redistribute): move the batch out. Broadcast
      // receivers share ownership and must copy.
      if (b.use_count() == 1) return std::move(*b);
      return *b;
    }
    ColumnBatch b;
    Row row = std::get<Row>(std::move(*item));
    b.Reset(row.size(), 1);
    b.AppendRow(std::move(row));
    return b;
  }
}

void MotionExchange::Abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& q : queues_) q->Close();
}

}  // namespace gphtap
