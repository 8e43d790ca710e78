// Tuple transport between plan slices (the Motion node's wire, Section 3.2).
// Bounded per-receiver buffers give the same flow-control semantics as the real
// UDP-with-ACK interconnect: a sender blocks when the receiver's buffer is full,
// which is exactly what makes the Appendix-B network deadlock possible when a
// join consumes its inputs in the wrong order.
//
// Two payload shapes travel the same queues: single Rows (the row engine) and
// shared ColumnBatch chunks (the vectorized engine). Either side of a motion
// may be row- or batch-oriented — Recv explodes batch items into rows, and
// RecvBatch wraps stray rows into one-row batches — so mixed-engine plans
// compose without renegotiation.
#ifndef GPHTAP_NET_MOTION_EXCHANGE_H_
#define GPHTAP_NET_MOTION_EXCHANGE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "catalog/datum.h"
#include "common/bounded_queue.h"
#include "net/sim_net.h"
#include "vec/column_batch.h"

namespace gphtap {

/// Batches ship by shared_ptr so Broadcast enqueues one copy for N receivers.
using BatchPtr = std::shared_ptr<ColumnBatch>;

/// One motion's data plane: `num_senders` producers feeding `num_receivers`
/// consumers, one bounded queue per receiver. Senders are thread-safe against
/// each other; each receiver index must be drained by a single consumer
/// thread (the executor's contract — one slice instance per gang member).
class MotionExchange {
 public:
  /// Rows a receiver's queue holds before its senders block.
  static constexpr size_t kBufferRows = 8192;

  /// `buffer_rows` bounds each receiver's queue in rows: a batch counts as
  /// its live rows, and a send is admitted while fewer than `buffer_rows`
  /// rows are queued, so one batch larger than the bound still moves.
  /// `net` (optional) charges kTupleData once per kRowsPerMessage rows.
  MotionExchange(int num_senders, int num_receivers, size_t buffer_rows,
                 SimNet* net = nullptr);

  static constexpr uint64_t kRowsPerMessage = 64;

  /// Sends a row to one receiver. Blocks while that receiver's buffer is full.
  /// Returns false if the exchange was aborted (query cancelled).
  bool Send(int receiver, Row row);

  /// Broadcast to every receiver.
  bool SendToAll(const Row& row);

  /// Sends one batch. SimNet is charged by the batch's ACTUAL live row count
  /// (ceil over kRowsPerMessage message windows), not one fixed window per
  /// call — a 256-row batch costs 4 kTupleData messages, a 3-row batch 1.
  bool SendBatch(int receiver, BatchPtr batch);

  /// Broadcast one batch; receivers share the same immutable ColumnBatch.
  bool SendBatchToAll(const BatchPtr& batch);

  /// Declares one sender finished; when all senders finish, receivers drain and
  /// then see end-of-stream.
  void CloseSender();

  /// Receives the next row for `receiver`; nullopt = end of stream (all senders
  /// closed and buffer drained) or abort. Batch items are exploded into rows.
  std::optional<Row> Recv(int receiver);

  /// Receives the next batch for `receiver`; row items arrive as one-row
  /// batches. nullopt = end of stream or abort.
  std::optional<ColumnBatch> RecvBatch(int receiver);

  /// Unblocks everyone and poisons the exchange (error/cancel path).
  void Abort();

  int num_senders() const { return num_senders_; }
  int num_receivers() const { return num_receivers_; }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Cumulative blocked time across all senders / receivers of this exchange
  /// (EXPLAIN ANALYZE reports these separately from operator wall time).
  int64_t send_wait_us() const { return send_wait_us_.load(std::memory_order_relaxed); }
  int64_t recv_wait_us() const { return recv_wait_us_.load(std::memory_order_relaxed); }

  /// Cumulative payload bytes sent through this exchange (the same byte tally
  /// SimNet is charged with); per-statement network attribution sums this
  /// across the plan's exchanges after the gang joins.
  uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }

 private:
  struct Eos {};
  using Item = std::variant<Row, BatchPtr, Eos>;
  // A batch weighs its live rows; a row or an end-of-stream mark weighs one.
  struct ItemRows {
    size_t operator()(const Item& item) const {
      const BatchPtr* batch = std::get_if<BatchPtr>(&item);
      return batch != nullptr ? (*batch)->ActiveRows() : 1;
    }
  };
  using Queue = BoundedQueue<Item, ItemRows>;

  /// Push with wait attribution: non-blocking fast path first, then a blocking
  /// Push under a kMotionSend wait scope so only real stalls are counted.
  bool PushItem(int receiver, Item item);
  /// Pop with wait attribution (kMotionRecv), same fast-path structure.
  std::optional<Item> PopItem(int receiver);

  // Charges SimNet for `n` payload rows: kTupleData once per kRowsPerMessage
  // boundary crossed by [rows_sent_, rows_sent_ + n), plus the byte tally.
  // The single accounting path for rows AND batches.
  void ChargeRows(uint64_t n, uint64_t bytes);

  const int num_senders_;
  const int num_receivers_;
  SimNet* const net_;
  std::vector<std::unique_ptr<Queue>> queues_;  // one per receiver
  std::vector<std::unique_ptr<std::atomic<int>>> eos_seen_;  // per receiver
  // Rows exploded from a batch item, awaiting Recv. Only the receiver's own
  // consumer thread touches its deque, so no lock is needed.
  std::vector<std::unique_ptr<std::deque<Row>>> pending_rows_;
  std::atomic<int> closed_senders_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<uint64_t> rows_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<int64_t> send_wait_us_{0};
  std::atomic<int64_t> recv_wait_us_{0};
};

}  // namespace gphtap

#endif  // GPHTAP_NET_MOTION_EXCHANGE_H_
